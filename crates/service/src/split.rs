//! Cross-shard bulk sorts: splitter selection, scatter planning, and
//! the reply-side k-way merge.
//!
//! A request larger than every band cannot ride any single shard's
//! pool, but the shard layer as a whole has the capacity — the sum of
//! the bands. This module turns one over-band request into a *scatter
//! plan*: a one-round sample of the keys picks `s − 1` splitters, the
//! splitters cut the key range into `s` contiguous partitions (one per
//! shard, sized to the shard's band by capacity-weighted quantiles),
//! and each partition becomes an in-band sub-request on its shard.
//! Sorted partitions come back range-disjoint, so the reply-side merge
//! is a k-way run merge.
//!
//! **Sampling math.** Following *Optimal Round and Sample-Size
//! Complexity for Partitioning in Parallel Sorting* (arXiv 2204.04599),
//! a single sampling round with `k = ceil(2 ln s / eps²)` samples per
//! splitter bounds every partition at `(1 + eps)` times its fair share
//! with high probability on random input. We read `eps` off the
//! configured [`BulkConfig::skew_bound`] (`skew_bound = 1 + eps`) and
//! clamp the factor to `[64, 512]` — the asymptotic formula under-
//! samples at small shard counts (its constants assume `s` in the
//! hundreds), and below ~64 samples per splitter the quantile
//! estimator is noise; above 512 sampling starts costing more than it
//! saves at our sizes.
//!
//! **Correctness is not conditional on balance.** The skew bound is a
//! *balance* property of random input; correctness never depends on it.
//! An adversarial input (all keys equal, say) lands every key in one
//! partition — the plan then chunks that partition into consecutive
//! band-sized sub-requests on its shard, and the k-way merge reorders
//! whatever comes back. Every plan sorts correctly; a good plan also
//! sorts in parallel.
//!
//! **Determinism.** Sampling uses a stateless xorshift stream seeded
//! from [`BulkConfig::seed`]: the plan is a pure function of
//! `(keys, bands, config)`, never of wall-clock or thread timing. The
//! [`crate::ShardEngine`] twin leans on this to replay a scatter/merge
//! schedule bit-for-bit.

use crate::admission::Rejection;
use crate::config::BulkConfig;
use crate::server::{gather_rows, with_word, Lane, LaneWord, RecordReply, Work};
use bitonic_network::Direction;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::time::Duration;

/// Why a bulk request failed: the shard that sank it and what happened
/// there. Carried by [`crate::SortError::Bulk`]; any sub-request
/// shed, expired, or failed fails the whole parent (surviving
/// partitions are discarded — a partial bulk sort is not a sort).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkFailure {
    /// The shard whose sub-request sank the parent.
    pub shard: usize,
    /// What happened to that sub-request.
    pub reason: BulkReason,
}

/// The per-shard outcome inside a [`BulkFailure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BulkReason {
    /// The sub-request was shed at the shard's admission gate.
    Shed(Rejection),
    /// The sub-request expired in the shard's queue.
    Expired {
        /// How long the sub-request waited.
        waited: Duration,
        /// The (merge-budget-reduced) deadline it carried.
        deadline: Duration,
    },
    /// The shard's batch failed; the machine's failure message.
    Failed(String),
    /// The service shut down before the sub-request was answered.
    Closed,
}

impl BulkReason {
    /// The reason a sub-request's post-admission error maps to. A
    /// nested `Bulk` error is impossible — sub-requests are in-band by
    /// construction — so it folds to its own failure message.
    #[must_use]
    pub fn from_sub_error(err: &crate::server::SortError) -> Self {
        use crate::server::SortError;
        match err {
            SortError::Expired { waited, deadline } => BulkReason::Expired {
                waited: *waited,
                deadline: *deadline,
            },
            SortError::MachineFailed(msg) => BulkReason::Failed(msg.clone()),
            SortError::ServiceClosed => BulkReason::Closed,
            SortError::Bulk(f) => BulkReason::Failed(f.to_string()),
        }
    }

    /// Stable label naming the reason class.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BulkReason::Shed(_) => "shed",
            BulkReason::Expired { .. } => "expired",
            BulkReason::Failed(_) => "failed",
            BulkReason::Closed => "closed",
        }
    }
}

impl std::fmt::Display for BulkFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bulk partition on shard {} ", self.shard)?;
        match &self.reason {
            BulkReason::Shed(r) => write!(f, "was shed: {r}"),
            BulkReason::Expired { waited, deadline } => {
                write!(f, "expired after {waited:?} (deadline {deadline:?})")
            }
            BulkReason::Failed(msg) => write!(f, "failed: {msg}"),
            BulkReason::Closed => write!(f, "was dropped by shutdown"),
        }
    }
}

/// One in-band sub-request of a scatter plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPart<K = u32> {
    /// The shard this partition (chunk) is bound for.
    pub shard: usize,
    /// The partition's keys, in input order (the shard sorts them).
    pub keys: Vec<K>,
    /// `rows[i]` is the original request row of `keys[i]`, so payload
    /// rows can follow their keys.
    pub rows: Vec<u32>,
}

/// A complete, deterministic scatter plan for one bulk request.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan<K = u32> {
    /// The `s − 1` chosen splitters, non-decreasing. A key `k` belongs
    /// to the first shard `i` with `k <= splitters[i]` (the last shard
    /// takes everything above the final splitter).
    pub splitters: Vec<K>,
    /// The sub-requests, grouped by shard in shard order. A partition
    /// larger than its shard's band appears as several consecutive
    /// chunks on the same shard; empty partitions are omitted.
    pub parts: Vec<SplitPart<K>>,
    /// Keys sampled by the splitter-selection round.
    pub samples: usize,
    /// Per-shard skew: partition size over the capacity-weighted fair
    /// share (1.0 = perfectly proportional). Indexed by shard.
    pub skew: Vec<f64>,
}

impl<K> SplitPlan<K> {
    /// The largest per-shard skew (the figure the bound constrains).
    #[must_use]
    pub fn max_skew(&self) -> f64 {
        self.skew.iter().copied().fold(0.0, f64::max)
    }

    /// The mean per-shard skew.
    #[must_use]
    pub fn mean_skew(&self) -> f64 {
        if self.skew.is_empty() {
            return 0.0;
        }
        self.skew.iter().sum::<f64>() / self.skew.len() as f64
    }
}

/// Samples per splitter for an `s`-shard topology targeting
/// `skew_bound = 1 + eps`: `ceil(2 ln s / eps²)`, clamped to
/// `[64, 512]`. See the module docs for the derivation's source and
/// the rationale for the clamp.
#[must_use]
pub fn oversample_factor(shards: usize, skew_bound: f64) -> usize {
    let eps = (skew_bound - 1.0).max(1e-3);
    let s = shards.max(2) as f64;
    let k = (2.0 * s.ln() / (eps * eps)).ceil();
    (k as usize).clamp(64, 512)
}

/// The xorshift64 step every deterministic corner of this repo uses.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Build the scatter plan for `keys` (of any width) over shards whose
/// band capacities are `bands` (in shard order, strictly increasing —
/// exactly [`crate::Router::band_capacities`]). Pure: the same
/// `(keys, bands, cfg)` always yields the same plan.
///
/// Scatter order preserves input order within a bucket, and equal keys
/// always land in one bucket (ties go left) — chunks of one bucket are
/// consecutive input slices — so a [`merge`] that breaks key ties by
/// part order makes the whole bulk sort stable.
///
/// # Panics
/// Panics if `bands` is empty or `keys` is empty — the caller only
/// splits requests that exceeded a non-empty band list.
#[must_use]
pub fn plan<K: Copy + Ord>(keys: &[K], bands: &[usize], cfg: &BulkConfig) -> SplitPlan<K> {
    assert!(!bands.is_empty(), "cannot split across zero shards");
    assert!(!keys.is_empty(), "cannot split an empty request");
    let shards = bands.len();
    let n = keys.len();
    let capacity: usize = bands.iter().sum();

    // One sampling round, oversampled per splitter.
    let per_splitter = oversample_factor(shards, cfg.skew_bound);
    let want = (per_splitter * shards).min(n);
    let mut state = cfg.seed | 1;
    let mut sample: Vec<K> = (0..want)
        .map(|_| keys[(xorshift(&mut state) % n as u64) as usize])
        .collect();
    sample.sort_unstable();

    // Capacity-weighted quantiles: shard i's expected share of the
    // request is band_i / sum(bands), so its splitter sits at the
    // cumulative-weight quantile of the sorted sample. With equal
    // bands this degenerates to the classic equal-quantile pick.
    let mut splitters = Vec::with_capacity(shards - 1);
    let mut cum = 0usize;
    for band in &bands[..shards - 1] {
        cum += band;
        let q = (cum as f64 / capacity as f64 * sample.len() as f64).round() as usize;
        splitters.push(sample[q.min(sample.len() - 1)]);
    }

    // Scatter: each key to the first shard whose splitter admits it.
    // Ties on a splitter all land left of it, which can only shift
    // skew, never order — the merge reassembles any distribution.
    let mut buckets: Vec<(Vec<K>, Vec<u32>)> = vec![(Vec::new(), Vec::new()); shards];
    for (row, &k) in keys.iter().enumerate() {
        let bucket = &mut buckets[splitters.partition_point(|&s| s < k)];
        bucket.0.push(k);
        bucket.1.push(row as u32);
    }

    let skew = buckets
        .iter()
        .zip(bands)
        .map(|((b, _), band)| {
            let share = n as f64 * (*band as f64 / capacity as f64);
            b.len() as f64 / share
        })
        .collect();

    // Chunk any partition past its band into consecutive band-sized
    // sub-requests on the same shard — the degenerate-input safety net
    // that keeps every sub-request admissible.
    let mut parts = Vec::with_capacity(shards);
    for (shard, (bucket, rows)) in buckets.into_iter().enumerate() {
        for (keys, rows) in bucket.chunks(bands[shard]).zip(rows.chunks(bands[shard])) {
            parts.push(SplitPart {
                shard,
                keys: keys.to_vec(),
                rows: rows.to_vec(),
            });
        }
    }

    SplitPlan {
        splitters,
        parts,
        samples: want,
        skew,
    }
}

/// A run's next key in the merge heap. The heap pops its greatest
/// element, so `Head` orders by the next key in `dir` order and then by
/// the earliest part.
#[derive(PartialEq, Eq)]
struct Head<K> {
    key: K,
    part: usize,
    dir: Direction,
}

impl<K: Ord> Ord for Head<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_key = match self.dir {
            Direction::Ascending => other.key.cmp(&self.key),
            Direction::Descending => self.key.cmp(&other.key),
        };
        by_key.then(other.part.cmp(&self.part))
    }
}

impl<K: Ord> PartialOrd for Head<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reassemble sorted partitions into one ordered reply: a heap k-way
/// merge, `O(n log p)`, of runs each sorted in `dir` with `stride`
/// payload bytes per key in key order (`parts[i] = (keys, rows)`).
/// Key ties go to the earlier part in both directions, which makes the
/// whole bulk sort stable given [`plan`]'s scatter; stride 0 copies no
/// rows. Correct for any partition quality — overlapping ranges
/// (chunked partitions) merge exactly like disjoint ones.
#[must_use]
pub fn merge<K: Copy + Ord>(
    parts: &[(&[K], &[u8])],
    stride: usize,
    dir: Direction,
) -> (Vec<K>, Vec<u8>) {
    let total: usize = parts.iter().map(|(k, _)| k.len()).sum();
    let mut keys = Vec::with_capacity(total);
    let mut rows = Vec::with_capacity(total * stride);
    let mut at = vec![0usize; parts.len()];
    let mut heap: BinaryHeap<Head<K>> = parts
        .iter()
        .enumerate()
        .filter_map(|(part, (k, _))| k.first().map(|&key| Head { key, part, dir }))
        .collect();
    while let Some(mut head) = heap.peek_mut() {
        let (part, i) = (head.part, at[head.part]);
        keys.push(head.key);
        if stride > 0 {
            rows.extend_from_slice(&parts[part].1[i * stride..(i + 1) * stride]);
        }
        at[part] = i + 1;
        match parts[part].0.get(i + 1) {
            Some(&next) => head.key = next,
            None => {
                PeekMut::pop(head);
            }
        }
    }
    (keys, rows)
}

/// [`merge`] for key-only partitions.
#[must_use]
pub fn merge_parts<K: Copy + Ord>(parts: &[Vec<K>], dir: Direction) -> Vec<K> {
    let runs: Vec<(&[K], &[u8])> = parts.iter().map(|p| (&p[..], &[][..])).collect();
    merge(&runs, 0, dir).0
}

/// One bulk request cut into in-band sub-requests: each `(shard, work)`
/// part carries its keys at the parent's width and its payload rows.
pub(crate) struct Scatter {
    pub(crate) parts: Vec<(usize, Work)>,
    pub(crate) samples: usize,
    pub(crate) skew: Vec<f64>,
}

/// [`plan`] `work` in its lane's key domain and cut it into
/// sub-requests that inherit its direction, stride and entry point.
pub(crate) fn scatter(work: &Work, bands: &[usize], cfg: &BulkConfig) -> Scatter {
    with_word!(work.lane(), W => scatter_as::<W>(work, bands, cfg))
}

fn scatter_as<W: LaneWord>(work: &Work, bands: &[usize], cfg: &BulkConfig) -> Scatter {
    let plan = plan(&W::widen(&work.keys), bands, cfg);
    let parts = plan
        .parts
        .into_iter()
        .map(|p| {
            let sub = Work {
                keys: W::narrow(p.keys, &work.keys),
                payload: gather_rows(&work.payload, work.stride, &p.rows),
                stride: work.stride,
                dir: work.dir,
                record: work.record,
            };
            (p.shard, sub)
        })
        .collect();
    Scatter {
        parts,
        samples: plan.samples,
        skew: plan.skew,
    }
}

/// [`merge`] the sorted sub-replies of one `lane` bulk request, in part
/// order, into the parent's reply.
pub(crate) fn merge_replies(lane: Lane, parts: &[RecordReply], dir: Direction) -> RecordReply {
    with_word!(lane, W => merge_as::<W>(parts, dir))
}

fn merge_as<W: LaneWord>(parts: &[RecordReply], dir: Direction) -> RecordReply {
    let keys: Vec<_> = parts.iter().map(|r| W::widen(&r.keys)).collect();
    let runs: Vec<(&[W::Key], &[u8])> = keys
        .iter()
        .zip(parts)
        .map(|(k, r)| (&k[..], &r.payload[..]))
        .collect();
    let stride = parts[0].stride;
    let (merged, payload) = merge(&runs, stride, dir);
    RecordReply {
        keys: W::narrow(merged, &parts[0].keys),
        payload,
        stride,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitonic_core::tagged::sorted_independently;

    fn cfg() -> BulkConfig {
        BulkConfig::on()
    }

    fn sort_via_plan(keys: &[u32], bands: &[usize], dir: Direction) -> Vec<u32> {
        let plan = plan(keys, bands, &cfg());
        let sorted: Vec<Vec<u32>> = plan
            .parts
            .iter()
            .map(|p| sorted_independently(&p.keys, dir))
            .collect();
        merge_parts(&sorted, dir)
    }

    #[test]
    fn the_plan_partitions_every_key_exactly_once() {
        let keys: Vec<u32> = (0..40_000u32)
            .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(9))
            .collect();
        let bands = [4_096, 16_384];
        let p = plan(&keys, &bands, &cfg());
        let total: usize = p.parts.iter().map(|x| x.keys.len()).sum();
        assert_eq!(total, keys.len());
        assert_eq!(p.splitters.len(), 1);
        assert!(p.samples > 0);
        // Every chunk is admissible on its shard.
        for part in &p.parts {
            assert!(part.keys.len() <= bands[part.shard], "{part:?}");
        }
    }

    #[test]
    fn random_input_respects_the_configured_skew_bound() {
        let keys: Vec<u32> = (0..60_000u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(13))
            .collect();
        let p = plan(&keys, &[4_096, 16_384], &cfg());
        assert!(
            p.max_skew() <= cfg().skew_bound,
            "max skew {} exceeds the bound {}",
            p.max_skew(),
            cfg().skew_bound
        );
    }

    #[test]
    fn degenerate_inputs_still_sort_via_chunking() {
        let bands = [64, 256];
        for (name, keys) in [
            ("all equal", vec![7u32; 1_000]),
            ("presorted", (0..1_000u32).collect()),
            ("reversed", (0..1_000u32).rev().collect()),
            ("two values", (0..1_000u32).map(|i| i % 2).collect()),
        ] {
            for dir in [Direction::Ascending, Direction::Descending] {
                let got = sort_via_plan(&keys, &bands, dir);
                assert_eq!(got, sorted_independently(&keys, dir), "{name} {dir:?}");
            }
        }
    }

    #[test]
    fn tiny_inputs_split_fine_even_below_the_shard_count() {
        let got = sort_via_plan(&[9, 1], &[64, 256, 1024], Direction::Ascending);
        assert_eq!(got, vec![1, 9]);
    }

    #[test]
    fn plans_are_a_pure_function_of_keys_bands_and_seed() {
        let keys: Vec<u32> = (0..20_000u32).map(|i| i.wrapping_mul(48_271)).collect();
        let a = plan(&keys, &[4_096, 16_384], &cfg());
        let b = plan(&keys, &[4_096, 16_384], &cfg());
        assert_eq!(a, b);
        let mut other = cfg();
        other.seed ^= 0xFFFF;
        let c = plan(&keys, &[4_096, 16_384], &other);
        assert_ne!(a.splitters, c.splitters, "a new seed samples differently");
    }

    #[test]
    fn oversampling_grows_with_tighter_bounds_and_more_shards() {
        assert!(oversample_factor(2, 1.1) > oversample_factor(2, 1.5));
        assert!(oversample_factor(8, 1.2) >= oversample_factor(2, 1.2));
        assert_eq!(oversample_factor(2, 100.0), 64, "floor holds");
        assert_eq!(oversample_factor(64, 1.001), 512, "ceiling holds");
    }

    #[test]
    fn record_plans_scatter_rows_with_their_keys_and_merge_stably() {
        use bitonic_core::tagged::records_sorted_independently;
        // Duplicate-heavy u64 keys, payload row = the original index.
        let keys: Vec<u64> = (0..1_000u64).map(|i| (i * 7) % 16).collect();
        let bands = [64, 256];
        let p = plan(&keys, &bands, &cfg());
        let total: usize = p.parts.iter().map(|x| x.keys.len()).sum();
        assert_eq!(total, keys.len());
        for part in &p.parts {
            assert!(part.keys.len() <= bands[part.shard]);
            for (k, &row) in part.keys.iter().zip(&part.rows) {
                assert_eq!(*k, keys[row as usize], "rows point at their keys");
            }
        }
        for dir in [Direction::Ascending, Direction::Descending] {
            // Stable sub-sorts per part, then a tie-to-earlier-part merge:
            // the payload must come back in exactly the stable oracle's
            // permutation of the whole request.
            let sorted: Vec<(Vec<u64>, Vec<u8>)> = p
                .parts
                .iter()
                .map(|part| {
                    let seg = records_sorted_independently(&part.keys, dir);
                    let payload: Vec<u8> = seg
                        .perm
                        .iter()
                        .flat_map(|&i| part.rows[i as usize].to_le_bytes())
                        .collect();
                    (seg.keys, payload)
                })
                .collect();
            let runs: Vec<(&[u64], &[u8])> = sorted.iter().map(|(k, r)| (&k[..], &r[..])).collect();
            let (got_keys, got_payload) = merge(&runs, 4, dir);
            let oracle = records_sorted_independently(&keys, dir);
            assert_eq!(got_keys, oracle.keys);
            let got_rows: Vec<u32> = got_payload
                .chunks(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(got_rows, oracle.perm, "{dir:?} payload order is stable");
        }
    }

    #[test]
    fn bulk_failures_render_the_shard_and_reason() {
        let f = BulkFailure {
            shard: 2,
            reason: BulkReason::Shed(Rejection::QueueFull {
                queued: 9,
                limit: 8,
            }),
        };
        let msg = f.to_string();
        assert!(msg.contains("shard 2") && msg.contains("shed"), "{msg}");
        assert_eq!(f.reason.label(), "shed");
        assert_eq!(BulkReason::Closed.label(), "closed");
    }
}
