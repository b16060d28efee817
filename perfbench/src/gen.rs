//! Seeded input generation. Every input a run sends, and the oracle
//! reply it is checked against, is built here from `--seed` before the
//! set-up clock starts; the program under test only ever sees the
//! generated requests.

use bitonic_core::tagged::{records_sorted_independently, sorted_independently};
use bitonic_network::Direction;
use sort_service::net::LEN_PREFIX;
use sort_service::{RecordKeys, ReplyFrame, RequestFrame};

/// Machine size of every service the benchmark builds: `ServiceConfig::new(4)`
/// and `ShardedConfig::banded_bulk(4, 2)`, as `bitonic-sort serve` builds them.
pub const PROCS: usize = 4;

/// Request sizes of the serving mix: n < P, n = P, and a spread up to
/// 2048 keys (the size list of the repository's own serve benchmark).
pub const SIZES: [usize; 13] = [
    1,
    2,
    PROCS - 1,
    PROCS,
    7,
    16,
    33,
    64,
    100,
    256,
    777,
    1024,
    2048,
];

/// Payload strides (bytes per key) carried by the wire workload's
/// record frames.
pub const STRIDES: [u32; 3] = [0, 64, 256];

/// xorshift64 seeded through splitmix64, so nearby seeds diverge at once.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn dir(&mut self) -> Direction {
        if self.next() & 1 == 0 {
            Direction::Ascending
        } else {
            Direction::Descending
        }
    }
}

/// One in-process u32 request with its oracle reply.
pub struct PlainReq {
    pub keys: Vec<u32>,
    pub dir: Direction,
    pub expected: Vec<u32>,
}

fn plain(rng: &mut Rng, n: usize, duplicate_heavy: bool) -> PlainReq {
    let keys: Vec<u32> = (0..n)
        .map(|_| {
            let k = rng.next() as u32;
            if duplicate_heavy {
                k % 8
            } else {
                k
            }
        })
        .collect();
    let dir = rng.dir();
    let expected = sorted_independently(&keys, dir);
    PlainReq {
        keys,
        dir,
        expected,
    }
}

/// `cells` repeated to `count` entries and shuffled: every seed offers
/// the same mix of request shapes, only their order and keys change.
fn shuffled<T: Copy>(rng: &mut Rng, cells: &[T], count: usize) -> Vec<T> {
    let mut v: Vec<T> = cells.iter().cycle().take(count).copied().collect();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// The `serve` mix: sizes from [`SIZES`] in equal shares, every fourth
/// request duplicate-heavy (keys mod 8), directions drawn at random.
pub fn serve_requests(seed: u64, count: usize) -> Vec<PlainReq> {
    let mut rng = Rng::new(seed);
    let cells: Vec<(usize, bool)> = SIZES
        .iter()
        .flat_map(|&n| (0..4).map(move |i| (n, i == 0)))
        .collect();
    shuffled(&mut rng, &cells, count)
        .into_iter()
        .map(|(n, dup)| plain(&mut rng, n, dup))
        .collect()
}

/// The `bulk` mix: `count` requests whose sizes are stratified over
/// `[4 * band, 16 * band]` (one draw per equal-width stratum, every
/// fourth stratum duplicate-heavy), in shuffled order.
pub fn bulk_requests(seed: u64, count: usize, band: usize) -> Vec<PlainReq> {
    let mut rng = Rng::new(seed ^ 0xB01C);
    let (lo, hi) = (4 * band, 16 * band);
    let width = (hi - lo) / count;
    let cells: Vec<(usize, bool)> = (0..count)
        .map(|i| (lo + i * width + rng.below(width), i % 4 == 0))
        .collect();
    shuffled(&mut rng, &cells, count)
        .into_iter()
        .map(|(n, dup)| plain(&mut rng, n, dup))
        .collect()
}

/// One `SORT_1` frame with the reply a correct server sends for it.
pub struct WireReq {
    pub frame: RequestFrame,
    pub expected: ReplyFrame,
    pub keys: usize,
}

fn payload_for(rng: &mut Rng, n: usize, stride: u32) -> Vec<u8> {
    (0..n * stride as usize).map(|_| rng.next() as u8).collect()
}

fn gather(payload: &[u8], stride: u32, perm: &[u32]) -> Vec<u8> {
    let s = stride as usize;
    perm.iter()
        .flat_map(|&r| &payload[r as usize * s..(r as usize + 1) * s])
        .copied()
        .collect()
}

/// Key width and payload stride of one wire frame.
#[derive(Clone, Copy)]
enum Kind {
    Plain,
    U64(u32),
    U128(u32),
}

/// The `wire` mix of connection `conn`: per size in [`SIZES`], equal
/// shares of plain u32 frames and record frames (u64 and u128 keys, each
/// at every stride of [`STRIDES`]); every fourth cell is
/// duplicate-heavy, so stability shows in the payload.
pub fn wire_requests(seed: u64, conn: u64, count: usize) -> Vec<WireReq> {
    let mut rng = Rng::new(seed ^ 0x51DE ^ (conn << 48));
    let mut kinds = vec![Kind::Plain; 2 * STRIDES.len()];
    kinds.extend(STRIDES.iter().map(|&s| Kind::U64(s)));
    kinds.extend(STRIDES.iter().map(|&s| Kind::U128(s)));
    let cells: Vec<(usize, Kind, bool)> = SIZES
        .iter()
        .flat_map(|&n| kinds.iter().map(move |&k| (n, k)))
        .enumerate()
        .map(|(i, (n, k))| (n, k, i % 4 == 0))
        .collect();
    shuffled(&mut rng, &cells, count)
        .into_iter()
        .map(|(n, kind, dup)| {
            let key = |rng: &mut Rng| {
                let k = u128::from(rng.next()) << 64 | u128::from(rng.next());
                if dup {
                    k % 8
                } else {
                    k
                }
            };
            let dir = rng.dir();
            match kind {
                Kind::Plain => {
                    let keys: Vec<u32> = (0..n).map(|_| key(&mut rng) as u32).collect();
                    WireReq {
                        frame: RequestFrame::from_u32_keys(&keys, dir, None),
                        expected: ReplyFrame::Sorted(sorted_independently(&keys, dir)),
                        keys: n,
                    }
                }
                Kind::U64(stride) => {
                    let keys: Vec<u64> = (0..n).map(|_| key(&mut rng) as u64).collect();
                    let payload = payload_for(&mut rng, n, stride);
                    let oracle = records_sorted_independently(&keys, dir);
                    WireReq {
                        frame: RequestFrame::from_u64_keys(&keys, dir, None)
                            .with_payload(stride, payload.clone()),
                        expected: ReplyFrame::Record {
                            keys: RecordKeys::U64(oracle.keys),
                            payload: gather(&payload, stride, &oracle.perm),
                            stride,
                        },
                        keys: n,
                    }
                }
                Kind::U128(stride) => {
                    let keys: Vec<u128> = (0..n).map(|_| key(&mut rng)).collect();
                    let payload = payload_for(&mut rng, n, stride);
                    let oracle = records_sorted_independently(&keys, dir);
                    WireReq {
                        frame: RequestFrame::from_u128_keys(&keys, dir, None)
                            .with_payload(stride, payload.clone()),
                        expected: ReplyFrame::Record {
                            keys: RecordKeys::U128(oracle.keys),
                            payload: gather(&payload, stride, &oracle.perm),
                            stride,
                        },
                        keys: n,
                    }
                }
            }
        })
        .collect()
}

/// FNV-1a over a byte stream: the input fingerprint the self-test
/// compares across two generations from one seed.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn plain(&mut self, reqs: &[PlainReq]) {
        for r in reqs {
            // The wire encoding is a canonical byte form of a request.
            self.bytes(&RequestFrame::from_u32_keys(&r.keys, r.dir, None).encode());
        }
    }

    pub fn wire(&mut self, reqs: &[WireReq]) {
        for r in reqs {
            self.bytes(&r.frame.encode());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Strip the length prefix off an encoded frame (what `decode` takes).
pub fn frame_body(encoded: &[u8]) -> &[u8] {
    &encoded[LEN_PREFIX..]
}
