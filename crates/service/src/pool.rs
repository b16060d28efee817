//! The warm worker pool: persistent machines with retained sort state.
//!
//! Every machine in the pool is a [`SpmdMachine`] whose ranks hold a
//! long-lived [`SortContext`]: remap plans computed for one batch shape
//! stay cached for every later batch of that shape, and the flat
//! pack/transfer/unpack buffers stay at working-set size. Because the
//! service pads batches to power-of-two keys per rank, the set of
//! distinct shapes is logarithmic in the size range — after a short
//! warm-up, every batch runs with a 100% plan-cache hit rate (the
//! [`PoolStats`] counters prove it).
//!
//! Failure policy: a batch that fails — watchdog expiry on a stalled
//! rank, or a panic — breaks its machine. The pool replaces the machine
//! wholesale (fresh ranks, empty caches) and reports the failure to the
//! caller; the other machines and the service keep running.

use crate::config::ServiceConfig;
use crate::metrics::ClassMetrics;
use bitonic_core::algorithms::smart_sort_ctx;
use bitonic_core::tagged::RecordWord;
use bitonic_core::{LocalStrategy, SortContext};
use local_sorts::{RadixKey, W192};
use spmd::fault::FaultStats;
use spmd::{MachineConfig, MachineFailure, SpmdMachine};
use std::sync::Arc;
use std::time::Duration;

/// The machine type the pool manages for word shape `W`: tagged words
/// through ranks retaining a `SortContext`, each job returning its
/// rank's sorted slice.
pub type SortMachine<W = u64> = SpmdMachine<W, SortContext<W>, Vec<W>>;

/// A word shape the pool can sort, and where its machine lives: `u64`
/// words (plain `u32` requests) on the autoscaled rotation, the wider
/// record shapes on one lazily booted machine each outside it.
pub trait PoolWord: RecordWord + RadixKey {
    /// Whether this shape runs on the autoscaled rotation.
    const ROTATED: bool;
    /// The machine slot that runs this shape's next batch (advancing the
    /// rotation for rotated shapes).
    fn slot(machines: &mut Machines) -> &mut Option<SortMachine<Self>>;
}

/// Every machine a [`WarmPool`] holds, by word shape. Rotation slots
/// are always booted; the record slots boot on their first batch.
pub struct Machines {
    rotation: Vec<Option<SortMachine>>,
    next: usize,
    rec128: Option<SortMachine<u128>>,
    rec192: Option<SortMachine<W192>>,
}

impl PoolWord for u64 {
    const ROTATED: bool = true;

    fn slot(m: &mut Machines) -> &mut Option<SortMachine> {
        let idx = m.next;
        m.next = (idx + 1) % m.rotation.len();
        &mut m.rotation[idx]
    }
}

impl PoolWord for u128 {
    const ROTATED: bool = false;

    fn slot(m: &mut Machines) -> &mut Option<SortMachine<u128>> {
        &mut m.rec128
    }
}

impl PoolWord for W192 {
    const ROTATED: bool = false;

    fn slot(m: &mut Machines) -> &mut Option<SortMachine<W192>> {
        &mut m.rec192
    }
}

/// What the pool has done so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Batches completed successfully.
    pub batches_run: u64,
    /// Batches that failed (watchdog or panic) and broke their machine.
    pub batches_failed: u64,
    /// Machines replaced after a failed batch.
    pub machines_rebuilt: u64,
    /// Plan-cache hits summed over all ranks and batches.
    pub plan_hits: u64,
    /// Plan-cache misses summed over all ranks and batches.
    pub plan_misses: u64,
    /// Plan-cache misses of the most recent successful batch — zero once
    /// its machine has warmed to the batch's shape.
    pub last_batch_plan_misses: u64,
    /// Machines currently in the rotation (kept current across
    /// [`WarmPool::grow`]/[`WarmPool::shrink`]).
    pub machines: u64,
    /// Most machines the rotation ever held — the autoscaler's high-water
    /// mark.
    pub peak_machines: u64,
    /// Injected-fault and ARQ-recovery totals summed over every rank of
    /// every successful batch (the chaos layer's lifetime footprint on
    /// this pool).
    pub faults: FaultStats,
}

impl PoolStats {
    /// Lifetime plan-cache hit rate in `[0, 1]`.
    ///
    /// An unused pool (no hits, no misses) reports 1.0 by convention: it
    /// has never missed, and downstream `--check` gates demand a 100%
    /// steady-state rate, which a freshly idle pool should not fail.
    #[must_use]
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            return 1.0;
        }
        self.plan_hits as f64 / total as f64
    }

    /// Fold `other` into `self` — how per-shard pool stats aggregate into
    /// one fleet view (and into the metrics registry). Event counters
    /// add; `machines` and `peak_machines` add too, because across
    /// distinct pools they measure total capacity, not one rotation's
    /// size; `last_batch_plan_misses` adds the per-pool latest batches.
    pub fn merge(&mut self, other: &PoolStats) {
        self.batches_run += other.batches_run;
        self.batches_failed += other.batches_failed;
        self.machines_rebuilt += other.machines_rebuilt;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.last_batch_plan_misses += other.last_batch_plan_misses;
        self.machines += other.machines;
        self.peak_machines += other.peak_machines;
        self.faults.sum_merge(&other.faults);
    }
}

/// A rotation of warm `u64` [`SortMachine`]s, plus (lazily booted) one
/// record machine per wider word shape. The record machines sit outside
/// the autoscaled rotation — they exist only once a batch of their shape
/// arrives, and like the rotation they retain their `SortContext` so
/// their batch shapes warm the same remap plan cache. They are not
/// counted in the `machines` gauge, which measures rotation capacity.
pub struct WarmPool {
    machine_config: MachineConfig,
    strategy: LocalStrategy,
    machines: Machines,
    stats: PoolStats,
    metrics: Option<Arc<ClassMetrics>>,
}

impl std::fmt::Debug for WarmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmPool")
            .field("machines", &self.machines())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl WarmPool {
    /// Boot `cfg.machines` warm machines of `cfg.procs` ranks each.
    #[must_use]
    pub fn new(cfg: &ServiceConfig) -> Self {
        cfg.validate();
        // Measure the local-kernel crossover table once per process, so
        // every batch this pool serves dispatches on calibrated thresholds
        // instead of the baked-in reference-host constants (the serving
        // analogue of the LogP machine constants).
        local_sorts::dispatch::ensure_calibrated();
        // The chaos layer's faults (if any) ride along; the service-level
        // batch watchdog takes precedence over a watchdog configured there,
        // because the serving layer depends on it for batch containment.
        let mut fault = cfg.fault;
        if cfg.batch_watchdog.is_some() {
            fault.watchdog = cfg.batch_watchdog;
        }
        let machine_config = MachineConfig {
            procs: cfg.procs,
            mode: cfg.mode,
            fault,
            drain_grace: cfg
                .batch_watchdog
                .map_or(Duration::from_secs(5), |w| w * 4 + Duration::from_secs(1)),
            ..MachineConfig::new(cfg.procs)
        };
        let mut pool = WarmPool {
            machine_config,
            strategy: LocalStrategy::Merges,
            machines: Machines {
                rotation: (0..cfg.machines)
                    .map(|_| Some(boot(machine_config)))
                    .collect(),
                next: 0,
                rec128: None,
                rec192: None,
            },
            stats: PoolStats::default(),
            metrics: None,
        };
        pool.sync_gauge();
        pool
    }

    /// Hook this pool's per-batch harvest (plan cache, faults, kernels,
    /// machine gauge) into a live metrics class.
    pub(crate) fn set_metrics(&mut self, metrics: Arc<ClassMetrics>) {
        metrics.pool_machines.set(self.machines() as f64);
        self.metrics = Some(metrics);
    }

    /// Stamp the current pool size into every machine's gauge so each
    /// job's per-rank `CommStats` records the capacity that served it.
    fn sync_gauge(&mut self) {
        let n = self.machines() as u64;
        self.stats.machines = n;
        self.stats.peak_machines = self.stats.peak_machines.max(n);
        for m in self.machines.rotation.iter().flatten() {
            m.set_pool_machines(n);
        }
        if let Some(m) = &self.metrics {
            m.pool_machines.set(n as f64);
        }
    }

    /// Add one freshly booted machine to the rotation (autoscaler
    /// scale-up). Its caches start cold and warm on its first batches.
    pub fn grow(&mut self) {
        self.machines.rotation.push(Some(boot(self.machine_config)));
        self.sync_gauge();
    }

    /// Retire one machine (autoscaler scale-down), never dropping below
    /// one — a pool that scaled to zero could not serve the request that
    /// wakes it. Returns whether a machine was actually retired.
    pub fn shrink(&mut self) -> bool {
        let m = &mut self.machines;
        if m.rotation.len() <= 1 {
            return false;
        }
        m.rotation.pop();
        if m.next >= m.rotation.len() {
            m.next = 0;
        }
        self.sync_gauge();
        true
    }

    /// Machines currently in the rotation.
    #[must_use]
    pub fn machines(&self) -> usize {
        self.machines.rotation.len()
    }

    /// The pool's counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Sort `words` (already padded to `per_rank * procs`, see
    /// [`bitonic_core::tagged::RecordBatch::padded_words`]) on the
    /// machine for their shape — the next in the rotation for `u64`,
    /// the shape's own machine otherwise — returning the globally
    /// ascending words.
    ///
    /// On failure the broken machine is dropped and the failure
    /// returned; the pool remains usable. A rotation slot is rebooted at
    /// once, a record slot on its next batch.
    ///
    /// # Errors
    /// The [`MachineFailure`] that broke the batch.
    ///
    /// # Panics
    /// Panics if `words.len() != per_rank * procs`.
    pub fn run_batch<W: PoolWord>(
        &mut self,
        words: Vec<W>,
        per_rank: usize,
    ) -> Result<Vec<W>, MachineFailure> {
        let (config, strategy) = (self.machine_config, self.strategy);
        let procs = config.procs;
        assert_eq!(words.len(), per_rank * procs, "batch must be padded");
        let gauge = self.machines() as u64;
        // Rotation machines carry the pool gauge; record machines do not.
        let boot_slot = move || {
            let m = boot(config);
            if W::ROTATED {
                m.set_pool_machines(gauge);
            }
            m
        };
        let slot = W::slot(&mut self.machines);
        let words = Arc::new(words);
        let result = slot.get_or_insert_with(boot_slot).run(move |comm, ctx| {
            let me = comm.rank();
            let local = words[me * per_rank..(me + 1) * per_rank].to_vec();
            smart_sort_ctx(comm, local, strategy, ctx)
        });
        if result.is_err() {
            *slot = W::ROTATED.then(boot_slot);
        }
        let metrics = self.metrics.as_deref();
        match result {
            Ok(ranks) => {
                self.stats.batches_run += 1;
                let mut batch_misses = 0;
                let mut out = Vec::with_capacity(per_rank * procs);
                for r in ranks {
                    self.stats.plan_hits += r.stats.plan_hits;
                    self.stats.plan_misses += r.stats.plan_misses;
                    self.stats.faults.sum_merge(&r.stats.faults);
                    batch_misses += r.stats.plan_misses;
                    if let Some(m) = metrics {
                        m.record_rank_stats(&r.stats);
                    }
                    out.extend_from_slice(&r.output);
                }
                self.stats.last_batch_plan_misses = batch_misses;
                Ok(out)
            }
            Err(failure) => {
                self.stats.batches_failed += 1;
                self.stats.machines_rebuilt += 1;
                if let Some(m) = metrics {
                    m.machines_rebuilt.inc();
                }
                Err(failure)
            }
        }
    }
}

fn boot<W: RadixKey>(config: MachineConfig) -> SortMachine<W> {
    SpmdMachine::boot(config, |_| SortContext::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitonic_core::tagged::TaggedBatch;
    use bitonic_network::Direction;

    fn pool(procs: usize) -> WarmPool {
        let mut cfg = ServiceConfig::new(procs);
        cfg.batch_watchdog = Some(Duration::from_millis(200));
        WarmPool::new(&cfg)
    }

    fn run(pool: &mut WarmPool, keys: &[u32]) -> Vec<u32> {
        let mut batch = TaggedBatch::new();
        batch.push(keys, Direction::Ascending);
        let (words, per_rank) = batch.padded_words(pool.machine_config.procs);
        let sorted = pool.run_batch(words, per_rank).expect("batch runs");
        batch.split(&sorted).remove(0)
    }

    #[test]
    fn repeated_shapes_reach_a_perfect_hit_rate() {
        let mut p = pool(4);
        let keys: Vec<u32> = (0..256u32).rev().collect();
        let first = run(&mut p, &keys);
        assert!(first.windows(2).all(|w| w[0] <= w[1]));
        let cold = p.stats();
        assert!(cold.plan_misses > 0, "first batch computes plans");
        for _ in 0..5 {
            let out = run(&mut p, &keys);
            assert!(out.windows(2).all(|w| w[0] <= w[1]));
        }
        let warm = p.stats();
        assert_eq!(
            warm.plan_misses, cold.plan_misses,
            "steady state must not compute plans"
        );
        assert_eq!(warm.last_batch_plan_misses, 0);
        assert!(warm.plan_hits > cold.plan_hits);
        assert_eq!(warm.batches_run, 6);
    }

    #[test]
    fn grow_and_shrink_move_the_gauge_and_respect_the_floor() {
        let mut p = pool(2);
        assert_eq!(p.machines(), 1);
        assert_eq!(p.stats().machines, 1);
        p.grow();
        p.grow();
        assert_eq!(p.machines(), 3);
        assert_eq!(p.stats().machines, 3);
        assert_eq!(p.stats().peak_machines, 3);
        // Batches still come back correct across the grown rotation, and
        // every job's stats carry the current pool size.
        for _ in 0..3 {
            let out = run(&mut p, &[9, 3, 7, 1]);
            assert_eq!(out, vec![1, 3, 7, 9]);
        }
        assert!(p.shrink());
        assert_eq!(p.machines(), 2);
        assert!(p.shrink());
        assert!(!p.shrink(), "the floor is one machine");
        assert_eq!(p.machines(), 1);
        assert_eq!(p.stats().machines, 1);
        assert_eq!(p.stats().peak_machines, 3, "high-water mark sticks");
        let out = run(&mut p, &[4, 2]);
        assert_eq!(out, vec![2, 4]);
    }

    #[test]
    fn merging_empty_pool_stats_is_the_identity() {
        // Two never-used pools: the merge stays empty and the hit rate
        // keeps its by-convention 1.0 (an idle pool has never missed).
        let mut a = PoolStats::default();
        let b = PoolStats::default();
        a.merge(&b);
        assert_eq!(a.plan_hits + a.plan_misses, 0);
        assert_eq!(a.plan_hit_rate(), 1.0);
        assert_eq!(a.batches_run, 0);
        assert_eq!(a.machines, 0);
        // Empty merged into a live pool leaves it untouched.
        let mut live = PoolStats {
            batches_run: 3,
            plan_hits: 10,
            plan_misses: 2,
            machines: 2,
            peak_machines: 3,
            ..PoolStats::default()
        };
        let before = live;
        live.merge(&PoolStats::default());
        assert_eq!(live.plan_hits, before.plan_hits);
        assert_eq!(live.batches_run, before.batches_run);
        assert_eq!(live.peak_machines, before.peak_machines);
    }

    #[test]
    fn merging_saturated_pool_stats_adds_counters() {
        // A fully warmed pool (all hits) merged with a fully cold one
        // (all misses): totals add, and the rate reflects the blend.
        let mut warm = PoolStats {
            batches_run: u64::MAX / 2,
            plan_hits: 100,
            machines: 4,
            peak_machines: 4,
            ..PoolStats::default()
        };
        warm.faults.retries = 7;
        let mut cold = PoolStats {
            batches_run: 1,
            plan_misses: 100,
            machines: 1,
            peak_machines: 2,
            last_batch_plan_misses: 100,
            ..PoolStats::default()
        };
        cold.faults.retries = 5;
        cold.faults.drops_injected = 3;
        warm.merge(&cold);
        assert_eq!(warm.batches_run, u64::MAX / 2 + 1);
        assert_eq!((warm.plan_hits, warm.plan_misses), (100, 100));
        assert_eq!(warm.plan_hit_rate(), 0.5);
        assert_eq!(warm.machines, 5, "capacity across pools adds");
        assert_eq!(warm.peak_machines, 6);
        assert_eq!(warm.last_batch_plan_misses, 100);
        assert_eq!(warm.faults.retries, 12);
        assert_eq!(warm.faults.drops_injected, 3);
    }

    #[test]
    fn record_batches_sort_stably_and_warm_their_own_plan_cache() {
        use bitonic_core::tagged::{records_sorted_independently, RecordBatch};
        let mut p = pool(2);
        // Duplicate-heavy keys so stability is load-bearing.
        let keys: Vec<u64> = (0..64u64).map(|i| (i * 37) % 16).collect();
        for round in 0..3 {
            let mut batch = RecordBatch::<u128>::new();
            batch.push(&keys, Direction::Ascending);
            let (words, per_rank) = batch.padded_words(2);
            let sorted = p.run_batch(words, per_rank).expect("record batch");
            let seg = batch.split(&sorted).remove(0);
            let oracle = records_sorted_independently(&keys, Direction::Ascending);
            assert_eq!(seg.keys, oracle.keys);
            assert_eq!(seg.perm, oracle.perm, "stable permutation");
            if round > 0 {
                assert_eq!(
                    p.stats().last_batch_plan_misses,
                    0,
                    "record shapes warm too"
                );
            }
        }
        // The 192-bit machine is independent and handles >64-bit keys.
        let wide: Vec<u128> = keys.iter().map(|&k| u128::from(k) << 80).collect();
        let mut batch = RecordBatch::<W192>::new();
        batch.push(&wide, Direction::Descending);
        let (words, per_rank) = batch.padded_words(2);
        let sorted = p.run_batch(words, per_rank).expect("192-bit batch");
        let seg = batch.split(&sorted).remove(0);
        let oracle = records_sorted_independently(&wide, Direction::Descending);
        assert_eq!(seg.keys, oracle.keys);
        assert_eq!(seg.perm, oracle.perm);
        // Record machines live outside the plain rotation's gauge.
        assert_eq!(p.machines(), 1);
    }

    #[test]
    fn a_failed_batch_is_contained_and_the_pool_recovers() {
        let mut p = pool(2);
        // per_rank = 3 is not a power of two: the job's sort asserts on
        // every rank, breaking the machine.
        let bad = vec![1u64; 6];
        let err = p.run_batch(bad, 3);
        assert!(err.is_err());
        let s = p.stats();
        assert_eq!((s.batches_failed, s.machines_rebuilt), (1, 1));
        // The replacement machine serves the next batch correctly.
        let out = run(&mut p, &[5, 1, 9, 2]);
        assert_eq!(out, vec![1, 2, 5, 9]);
        assert_eq!(p.stats().batches_run, 1);
    }
}
