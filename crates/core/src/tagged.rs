//! Tagged multi-request sorting: many small sorts as one big one.
//!
//! The serving layer coalesces client requests into a single SPMD run by
//! exploiting exactly the property the thesis exploits — bitonic sort's
//! cost per key falls as `n/P` grows. Each request's keys are lifted
//! into machine words whose high bits are the request's *tag* (its index
//! in the batch), followed by the key, bit-negated for descending
//! requests, and (for records) the key's index within its request.
//! Sorting the combined words ascending therefore produces the batch's
//! requests as contiguous segments in tag order, each segment internally
//! in its requested order — one machine run, stable tag-partitioned
//! output, no per-key headers. [`RecordWord`] defines the three word
//! shapes and [`RecordBatch`] the batch codec; a plain `u32` sort is the
//! key-only `u64` shape.
//!
//! Padding uses each shape's all-ones `PAD`: tag `u32::MAX` is reserved
//! — a word carrying it could *equal* the sentinel — so usable tags stop
//! at [`MAX_TAG`] and a batch holds at most [`MAX_REQUESTS`] requests
//! (strictly fewer than `2^32`). Within that bound every encodable word,
//! even tag [`MAX_TAG`] carrying an all-ones key, compares strictly below
//! `PAD`; sentinels sink to the end and [`RecordBatch::split`] never sees
//! them. [`tag_for`] is the pure boundary check, [`RecordBatch::push`]
//! the enforcing caller.

use bitonic_network::Direction;
use local_sorts::W192;
use std::ops::Not;

/// Largest usable request tag. Tag `u32::MAX` is reserved: combined
/// with a key that munges to all-ones it would encode to exactly `PAD`,
/// and padding sentinels must sort *strictly* after every real word.
pub const MAX_TAG: u32 = u32::MAX - 1;

/// Most requests one batch can hold: tags `0..=MAX_TAG`.
pub const MAX_REQUESTS: usize = MAX_TAG as usize + 1;

/// The tag for the `index`-th request of a batch, or `None` once the
/// batch is full (`index >= MAX_REQUESTS`). Pure, so the boundary is
/// testable without materializing four billion requests.
#[must_use]
pub fn tag_for(index: usize) -> Option<u32> {
    if index >= MAX_REQUESTS {
        return None;
    }
    Some(index as u32)
}

/// The key as it sits in a word: descending requests negate it so that
/// the ascending batch sort leaves their segment in descending order.
/// Its own inverse.
fn munge<K: Not<Output = K>>(key: K, dir: Direction) -> K {
    match dir {
        Direction::Ascending => key,
        Direction::Descending => !key,
    }
}

/// The tag check every encoder makes.
fn usable(tag: u32) -> u32 {
    assert!(tag <= MAX_TAG, "tag {tag} is reserved for the PAD sentinel");
    tag
}

/// A batch of plain `u32` sort requests: a [`RecordBatch<u64>`] whose
/// split hands back bare key vectors instead of [`RecordSegment`]s.
#[derive(Debug, Default, Clone)]
pub struct TaggedBatch(RecordBatch<u64>);

impl TaggedBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        TaggedBatch::default()
    }

    /// [`RecordBatch::split`], keeping only each request's keys.
    #[must_use]
    pub fn split(&self, sorted: &[u64]) -> Vec<Vec<u32>> {
        self.0.split(sorted).into_iter().map(|s| s.keys).collect()
    }
}

impl std::ops::Deref for TaggedBatch {
    type Target = RecordBatch<u64>;

    fn deref(&self) -> &RecordBatch<u64> {
        &self.0
    }
}

impl std::ops::DerefMut for TaggedBatch {
    fn deref_mut(&mut self) -> &mut RecordBatch<u64> {
        &mut self.0
    }
}

/// What each request's reply should be: its keys sorted in its requested
/// order, computed locally. The oracle the batch path is tested against.
#[must_use]
pub fn sorted_independently(keys: &[u32], dir: Direction) -> Vec<u32> {
    let mut out = keys.to_vec();
    out.sort_unstable();
    if dir == Direction::Descending {
        out.reverse();
    }
    out
}

// ---------------------------------------------------------------------------
// Record words: (tag, key, record-id) for u32/u64/u128 keys.
// ---------------------------------------------------------------------------

/// A machine word carrying one *record*: a batch tag, a key, and — in
/// the shapes that have room — the record's index within its request
/// (`rid`).
///
/// The rid rides in the word's least significant bits, below the key, so
/// an ascending sort of the words yields each request's records in
/// *stable* key order — equal keys keep their input order (the oracle is
/// a stable `sort_by_key`) — and the rid sequence read off the sorted
/// segment **is** the payload permutation: reply payload row `i` is
/// request payload row `perm[i]`. Three word shapes cover the wire key
/// widths:
///
/// * `u64` — `[tag:32][key:32]`, serving u32 keys without payload. It
///   has no rid ([`RecordWord::RID`] is false): equal keys with nothing
///   attached are indistinguishable, so there is no permutation to carry;
/// * `u128` — `[tag:32][key:64][rid:32]`, serving u32 (zero-extended)
///   keys with payload and all u64 keys;
/// * [`W192`] — `[tag:32][key:128][rid:32]`, serving u128 keys.
///
/// All munge descending keys by bitwise negation; the rid is never
/// munged, so ties stay input-ordered under either direction. The
/// all-ones `PAD` carries the reserved tag `u32::MAX`, so every word with
/// a usable tag (`<= MAX_TAG`) sorts strictly below it regardless of key
/// and rid.
pub trait RecordWord: Copy + Ord + Send + Sync + 'static {
    /// The widest key this word carries (narrower keys zero-extend).
    type Key: Copy + Ord + Send + Sync + 'static;
    /// The padding sentinel: sorts strictly after every encoded word.
    const PAD: Self;
    /// Whether the word carries the record id (see the trait docs).
    const RID: bool;
    /// Lift `(tag, key, rid)` into a word (key munged for `dir`). Shapes
    /// without a rid field drop `rid`.
    ///
    /// # Panics
    /// Panics if `tag` exceeds [`MAX_TAG`] (reserved for `PAD`).
    fn encode(tag: u32, key: Self::Key, rid: u32, dir: Direction) -> Self;
    /// The tag field.
    fn tag(self) -> u32;
    /// The record-id field (0 in shapes without one).
    fn rid(self) -> u32;
    /// Recover the key (inverse of [`RecordWord::encode`] for `dir`).
    fn key(self, dir: Direction) -> Self::Key;
}

impl RecordWord for u64 {
    type Key = u32;
    const PAD: u64 = u64::MAX;
    const RID: bool = false;

    #[inline]
    fn encode(tag: u32, key: u32, _rid: u32, dir: Direction) -> u64 {
        (u64::from(usable(tag)) << 32) | u64::from(munge(key, dir))
    }

    #[inline]
    fn tag(self) -> u32 {
        (self >> 32) as u32
    }

    #[inline]
    fn rid(self) -> u32 {
        0
    }

    #[inline]
    fn key(self, dir: Direction) -> u32 {
        munge(self as u32, dir)
    }
}

impl RecordWord for u128 {
    type Key = u64;
    const PAD: u128 = u128::MAX;
    const RID: bool = true;

    #[inline]
    fn encode(tag: u32, key: u64, rid: u32, dir: Direction) -> u128 {
        (u128::from(usable(tag)) << 96) | (u128::from(munge(key, dir)) << 32) | u128::from(rid)
    }

    #[inline]
    fn tag(self) -> u32 {
        (self >> 96) as u32
    }

    #[inline]
    fn rid(self) -> u32 {
        self as u32
    }

    #[inline]
    fn key(self, dir: Direction) -> u64 {
        munge((self >> 32) as u64, dir)
    }
}

impl RecordWord for W192 {
    type Key = u128;
    const PAD: W192 = W192::MAX;
    const RID: bool = true;

    #[inline]
    fn encode(tag: u32, key: u128, rid: u32, dir: Direction) -> W192 {
        let munged = munge(key, dir);
        W192 {
            hi: (u64::from(usable(tag)) << 32) | (munged >> 96) as u64,
            mid: (munged >> 32) as u64,
            lo: ((munged as u32 as u64) << 32) | u64::from(rid),
        }
    }

    #[inline]
    fn tag(self) -> u32 {
        (self.hi >> 32) as u32
    }

    #[inline]
    fn rid(self) -> u32 {
        self.lo as u32
    }

    #[inline]
    fn key(self, dir: Direction) -> u128 {
        let munged = (u128::from(self.hi & 0xFFFF_FFFF) << 96)
            | (u128::from(self.mid) << 32)
            | u128::from(self.lo >> 32);
        munge(munged, dir)
    }
}

/// One request's slice of a sorted record batch: the keys in the
/// requested (stable) order, and the permutation that reorders the
/// request's payload rows to match (`reply row i` ← `request row
/// perm[i]`). Word shapes without a rid leave `perm` empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSegment<K> {
    /// The request's keys, sorted stably in its requested direction.
    pub keys: Vec<K>,
    /// The payload permutation in sorted order.
    pub perm: Vec<u32>,
}

/// A coalesced batch of requests and the metadata to take it apart
/// again: encodes each request's keys as tagged words and splits the
/// sorted run back into per-request [`RecordSegment`]s. Generic over the
/// word shape (see [`RecordWord`] for which shape serves which request).
#[derive(Debug, Clone)]
pub struct RecordBatch<W: RecordWord> {
    words: Vec<W>,
    /// Per request, in tag order: key count and requested order.
    requests: Vec<(usize, Direction)>,
}

impl<W: RecordWord> Default for RecordBatch<W> {
    fn default() -> Self {
        RecordBatch {
            words: Vec::new(),
            requests: Vec::new(),
        }
    }
}

impl<W: RecordWord> RecordBatch<W> {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        RecordBatch::default()
    }

    /// Append a request, returning its tag. Record ids are the key
    /// positions `0..keys.len()` — the identity permutation at encode
    /// time.
    ///
    /// # Panics
    /// Panics if the batch already holds [`MAX_REQUESTS`] requests, or
    /// if one request holds more than `u32::MAX` keys (the rid field).
    pub fn push(&mut self, keys: &[W::Key], dir: Direction) -> u32 {
        let tag = tag_for(self.requests.len())
            .expect("too many requests in one batch: the next tag is reserved for PAD");
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "a record request's rid field is 32 bits"
        );
        self.words.extend(
            keys.iter()
                .enumerate()
                .map(|(rid, &k)| W::encode(tag, k, rid as u32, dir)),
        );
        self.requests.push((keys.len(), dir));
        tag
    }

    /// Number of requests coalesced so far.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.requests.len()
    }

    /// Total keys across all requests (excluding padding).
    #[must_use]
    pub fn total_keys(&self) -> usize {
        self.words.len()
    }

    /// Whether no requests have been coalesced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The batch's words padded with `W::PAD` to a machine-runnable
    /// shape: `per_rank * procs` total, `per_rank` a power of two (at
    /// least 2, so every schedule has a local phase). Returns the padded
    /// words and `per_rank`.
    #[must_use]
    pub fn padded_words(&self, procs: usize) -> (Vec<W>, usize) {
        let per_rank = self.words.len().div_ceil(procs).next_power_of_two().max(2);
        let mut words = self.words.clone();
        words.resize(per_rank * procs, W::PAD);
        (words, per_rank)
    }

    /// Split the globally sorted batch back into per-request segments in
    /// tag order, each carrying its stable-sorted keys and the payload
    /// permutation. Trailing `W::PAD` sentinels are ignored.
    ///
    /// # Panics
    /// Panics (debug assertions) if a word lands under the wrong tag.
    #[must_use]
    pub fn split(&self, sorted: &[W]) -> Vec<RecordSegment<W::Key>> {
        let mut out = Vec::with_capacity(self.requests.len());
        let mut cursor = 0usize;
        for (tag, &(len, dir)) in self.requests.iter().enumerate() {
            let segment = &sorted[cursor..cursor + len];
            debug_assert!(
                segment.iter().all(|&w| w.tag() as usize == tag),
                "segment words must carry their request's tag"
            );
            out.push(RecordSegment {
                keys: segment.iter().map(|&w| w.key(dir)).collect(),
                perm: if W::RID {
                    segment.iter().map(|&w| w.rid()).collect()
                } else {
                    Vec::new()
                },
            });
            cursor += len;
        }
        out
    }
}

/// The record oracle: `keys` sorted *stably* in `dir` plus the payload
/// permutation a correct record sort must produce — equal keys keep
/// their input order.
#[must_use]
pub fn records_sorted_independently<K: Ord + Copy>(keys: &[K], dir: Direction) -> RecordSegment<K> {
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    match dir {
        Direction::Ascending => order.sort_by_key(|&i| keys[i as usize]),
        Direction::Descending => {
            order.sort_by_key(|&i| std::cmp::Reverse(keys[i as usize]));
        }
    }
    RecordSegment {
        keys: order.iter().map(|&i| keys[i as usize]).collect(),
        perm: order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel_sort, Algorithm};
    use crate::local::LocalStrategy;
    use spmd::MessageMode;

    /// The plain shape: a `u64` word around a `u32` key.
    fn plain(tag: u32, key: u32, dir: Direction) -> u64 {
        <u64 as RecordWord>::encode(tag, key, 0, dir)
    }

    const PAD: u64 = <u64 as RecordWord>::PAD;

    #[test]
    fn encode_decode_round_trips() {
        for dir in [Direction::Ascending, Direction::Descending] {
            for key in [0u32, 1, 7, u32::MAX - 1, u32::MAX] {
                let w = plain(42, key, dir);
                assert_eq!(w.tag(), 42);
                assert_eq!(w.key(dir), key);
            }
        }
    }

    #[test]
    fn descending_requests_sort_descending_under_ascending_words() {
        // Within one tag, ascending word order must equal the requested
        // key order.
        let keys = [5u32, 1, 9, 1, 0];
        let mut words: Vec<u64> = keys
            .iter()
            .map(|&k| plain(3, k, Direction::Descending))
            .collect();
        words.sort_unstable();
        let decoded: Vec<u32> = words
            .iter()
            .map(|&w| w.key(Direction::Descending))
            .collect();
        assert_eq!(decoded, vec![9, 5, 1, 1, 0]);
    }

    #[test]
    fn every_word_sorts_below_pad() {
        let w = plain(u32::MAX - 2, u32::MAX, Direction::Ascending);
        assert!(w < PAD);
        let w = plain(u32::MAX - 2, 0, Direction::Descending);
        assert!(w < PAD);
    }

    #[test]
    fn the_very_last_usable_tag_still_sorts_below_pad() {
        // The worst encodable word: the largest usable tag carrying the
        // key that munges to all-ones. One short of the sentinel's tag.
        let asc = plain(MAX_TAG, u32::MAX, Direction::Ascending);
        let desc = plain(MAX_TAG, 0, Direction::Descending);
        assert!(asc < PAD, "MAX_TAG + max key must stay below PAD");
        assert!(desc < PAD, "MAX_TAG + negated zero must stay below PAD");
        assert_eq!(asc.tag(), MAX_TAG);
        assert_eq!(asc.key(Direction::Ascending), u32::MAX);
    }

    #[test]
    fn tag_allocation_stops_exactly_at_the_reserved_tag() {
        // Fewer than 2^32 requests fit: the last admitted index maps to
        // MAX_TAG, the next (which would need tag u32::MAX and could
        // collide with PAD) is refused.
        assert_eq!(tag_for(0), Some(0));
        assert_eq!(tag_for(MAX_REQUESTS - 1), Some(MAX_TAG));
        assert_eq!(tag_for(MAX_REQUESTS), None);
        assert_eq!(tag_for(usize::MAX), None);
    }

    #[test]
    #[should_panic(expected = "reserved for the PAD sentinel")]
    fn encoding_with_the_reserved_tag_is_rejected() {
        let _ = plain(u32::MAX, 0, Direction::Ascending);
    }

    #[test]
    fn record_words_round_trip_both_shapes() {
        for dir in [Direction::Ascending, Direction::Descending] {
            for key in [0u64, 1, 7, u64::from(u32::MAX), u64::MAX] {
                let w = <u128 as RecordWord>::encode(42, key, 9, dir);
                assert_eq!(RecordWord::tag(w), 42);
                assert_eq!(RecordWord::rid(w), 9);
                assert_eq!(RecordWord::key(w, dir), key);
                assert!(w < <u128 as RecordWord>::PAD);
            }
            for key in [0u128, 1, u128::from(u64::MAX), u128::MAX] {
                let w = <W192 as RecordWord>::encode(MAX_TAG, key, u32::MAX, dir);
                assert_eq!(RecordWord::tag(w), MAX_TAG);
                assert_eq!(RecordWord::rid(w), u32::MAX);
                assert_eq!(RecordWord::key(w, dir), key);
                assert!(w < <W192 as RecordWord>::PAD);
            }
        }
    }

    #[test]
    fn sorted_record_words_are_stable_and_carry_the_permutation() {
        // Duplicate-heavy keys: stability is the whole point.
        let keys: Vec<u64> = vec![5, 1, 5, 5, 0, 1, 5, u64::MAX, 0];
        for dir in [Direction::Ascending, Direction::Descending] {
            let mut batch = RecordBatch::<u128>::new();
            batch.push(&keys, dir);
            let mut words = batch.padded_words(2).0;
            words.sort_unstable();
            let seg = &batch.split(&words)[0];
            let oracle = records_sorted_independently(&keys, dir);
            assert_eq!(seg, &oracle, "{dir:?}");
        }
    }

    #[test]
    fn record_batch_through_the_machine_matches_the_stable_oracle() {
        let reqs: Vec<(Vec<u128>, Direction)> = vec![
            (vec![9, 3, 3, 3, 7], Direction::Ascending),
            (vec![], Direction::Ascending),
            (vec![u128::MAX, 2, 2, 1], Direction::Descending),
            (vec![1 << 100, 1 << 40, 1 << 100, 5], Direction::Ascending),
            (vec![8], Direction::Descending),
        ];
        let mut batch = RecordBatch::<W192>::new();
        for (keys, dir) in &reqs {
            batch.push(keys, *dir);
        }
        let (words, per_rank) = batch.padded_words(4);
        assert_eq!(words.len(), per_rank * 4);
        let run = run_parallel_sort(
            &words,
            4,
            MessageMode::Long,
            Algorithm::Smart,
            LocalStrategy::Merges,
        );
        let segments = batch.split(&run.output);
        assert_eq!(segments.len(), reqs.len());
        for ((keys, dir), seg) in reqs.iter().zip(&segments) {
            assert_eq!(seg, &records_sorted_independently(keys, *dir));
        }
    }

    #[test]
    fn batch_through_the_machine_matches_independent_sorts() {
        let reqs: Vec<(Vec<u32>, Direction)> = vec![
            (vec![9, 3, 3, 7], Direction::Ascending),
            (vec![], Direction::Ascending),
            (vec![2, 1], Direction::Descending),
            (vec![u32::MAX, 0, 5], Direction::Ascending),
            (vec![8], Direction::Descending),
        ];
        let mut batch = TaggedBatch::new();
        for (keys, dir) in &reqs {
            batch.push(keys, *dir);
        }
        let (words, per_rank) = batch.padded_words(4);
        assert_eq!(words.len(), per_rank * 4);
        let run = run_parallel_sort(
            &words,
            4,
            MessageMode::Long,
            Algorithm::Smart,
            LocalStrategy::Merges,
        );
        let replies = batch.split(&run.output);
        assert_eq!(replies.len(), reqs.len());
        for ((keys, dir), reply) in reqs.iter().zip(&replies) {
            assert_eq!(reply, &sorted_independently(keys, *dir));
        }
    }
}
