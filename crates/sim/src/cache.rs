//! Shared, concurrency-safe memoization for simulator evaluations.
//!
//! One scheduling run evaluates thousands of configurations, and the
//! closed-form estimates repeat work across them. The cache keeps three
//! layers:
//!
//! * the completion analysis `P_D(U)`, which depends only on `N_D`;
//! * the collapsed decode-stage grids, one per stage class
//!   ([`DecStageKey`]);
//! * the full estimates, keyed by [`ScheduleConfig`], which repeated
//!   searches on one simulator revisit (a replan beside the full search it
//!   must match, a sweep over latency bounds).
//!
//! Invalidation has one rule: an [`EvalCache`] belongs to exactly one
//! (model, cluster, profile, workload) tuple. `Simulator::clone()` shares
//! it; [`with_workload`](crate::Simulator::with_workload) and
//! [`with_cluster`](crate::Simulator::with_cluster) install a fresh one.
//!
//! Concurrency: each layer is one `RwLock<BTreeMap>` shared by the
//! scheduler's search pool. On a racing miss both threads compute
//! (computation is pure), and the insert that loses the race is counted as
//! a hit — making the hit/miss totals a function of the evaluated multiset
//! only, independent of thread interleaving.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use exegpt_dist::{CompletionDist, LengthDist};
use exegpt_profiler::Grid1D;

use crate::config::ScheduleConfig;
use crate::error::SimError;
use crate::estimate::Estimate;

/// One memo layer: an ordered map behind a reader-writer lock. A poisoned
/// lock is recovered, since every write is one insert of a finished value
/// and leaves the map valid.
struct Memo<K, V>(RwLock<BTreeMap<K, V>>);

impl<K: Ord, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Self(RwLock::new(BTreeMap::new()))
    }

    /// The memoized value for `key`, running `build` on a miss. The flag
    /// reports whether this call inserted the entry (`false` = found, or
    /// lost an insert race to a concurrent miss).
    fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> (V, bool) {
        if let Some(v) = self.0.read().unwrap_or_else(|e| e.into_inner()).get(&key) {
            return (v.clone(), false);
        }
        let value = build();
        let mut map = self.0.write().unwrap_or_else(|e| e.into_inner());
        match map.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => (value, false),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value.clone());
                (value, true)
            }
        }
    }

    fn len(&self) -> usize {
        self.0.read().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Completion analysis for one `N_D`, with the per-iteration survival
/// series precomputed so the RRA decode loop is O(N_D) instead of O(N_D²).
pub(crate) struct CompletionInfo {
    /// The distribution itself (for `decode_batch_for` etc.).
    pub dist: CompletionDist,
    /// `survival[u-1]` = expected fraction of the pool still active at the
    /// start of decode iteration `u`.
    pub survival: Vec<f64>,
}

/// Key of the collapsed decode-bottleneck grids: one grid per
/// (TP degree, boundary link, layer allocation) stage class. The workload's
/// context/input lengths are fixed per cache, so they are not part of the
/// key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct DecStageKey {
    pub tp: usize,
    pub intra: bool,
    pub alloc: usize,
}

/// Point-in-time cache counters, exposed through
/// [`Simulator::cache_stats`](crate::Simulator::cache_stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCacheStats {
    /// Full-estimate lookups answered from the estimate memo.
    pub hits: usize,
    /// Full-estimate lookups that had to run the closed-form evaluation.
    pub misses: usize,
    /// Distinct entries across the three layers (completion analyses,
    /// decode-stage grids, estimates).
    pub entries: usize,
}

/// The shared evaluation cache: completion analyses, collapsed decode-stage
/// grids and full estimates. One instance per (model, cluster, profile,
/// workload); see the module docs.
pub(crate) struct EvalCache {
    completion: Memo<usize, Result<Arc<CompletionInfo>, SimError>>,
    dec_stage: Memo<DecStageKey, Result<Arc<Grid1D>, SimError>>,
    estimates: Memo<ScheduleConfig, Result<Estimate, SimError>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl std::fmt::Debug for EvalCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCache")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl EvalCache {
    pub(crate) fn new() -> Self {
        Self {
            completion: Memo::new(),
            dec_stage: Memo::new(),
            estimates: Memo::new(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    pub(crate) fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.completion.len() + self.dec_stage.len() + self.estimates.len(),
        }
    }

    /// Completion analysis for `n_d` over `output`, built at most once per
    /// `n_d` for this cache's workload.
    ///
    /// # Errors
    ///
    /// Propagates [`CompletionDist::new`] failures (`n_d == 0`).
    pub(crate) fn completion(
        &self,
        output: &LengthDist,
        n_d: usize,
    ) -> Result<Arc<CompletionInfo>, SimError> {
        self.completion
            .get_or_insert_with(n_d, || {
                let dist = CompletionDist::new(output, n_d)
                    .map_err(|e| SimError::InvalidConfig { what: "n_d", why: e.to_string() })?;
                let survival = dist.survival_series();
                Ok(Arc::new(CompletionInfo { dist, survival }))
            })
            .0
    }

    /// Collapsed decode-bottleneck grid for one stage class, built at most
    /// once per (TP degree, link, allocation).
    pub(crate) fn dec_stage_grid(
        &self,
        key: DecStageKey,
        build: impl FnOnce() -> Result<Grid1D, SimError>,
    ) -> Result<Arc<Grid1D>, SimError> {
        self.dec_stage.get_or_insert_with(key, || build().map(Arc::new)).0
    }

    /// Full-estimate memo. Only the lookup that inserts an entry counts as a
    /// miss; every other one, including an insert race lost to a concurrent
    /// miss, counts as a hit, so the totals are deterministic for a
    /// deterministic evaluation multiset.
    pub(crate) fn estimate(
        &self,
        key: ScheduleConfig,
        eval: impl FnOnce() -> Result<Estimate, SimError>,
    ) -> Result<Estimate, SimError> {
        let (est, inserted) = self.estimates.get_or_insert_with(key, eval);
        let counter = if inserted { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RraConfig, TpConfig};

    fn dummy_estimate(latency: f64) -> Result<Estimate, SimError> {
        let fp = exegpt_model::MemoryFootprint::default();
        Ok(Estimate {
            latency: exegpt_units::Secs::new(latency),
            throughput: 1.0 / latency,
            memory: crate::estimate::MemoryReport { encoder_gpu: fp, decoder_gpu: fp, capacity: 0 },
            breakdown: crate::estimate::Breakdown {
                encode_time: exegpt_units::Secs::ZERO,
                decode_time: exegpt_units::Secs::ZERO,
                period: exegpt_units::Secs::new(latency),
                stages: 1,
                decode_batch: 1,
            },
        })
    }

    #[test]
    fn estimate_memo_counts_hits_and_misses() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(4, 8, TpConfig::none()));
        let mut evals = 0;
        for _ in 0..3 {
            let est = cache
                .estimate(key, || {
                    evals += 1;
                    dummy_estimate(2.0)
                })
                .expect("ok");
            assert_eq!(est.latency, exegpt_units::Secs::new(2.0));
        }
        assert_eq!(evals, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = EvalCache::new();
        let key = ScheduleConfig::Rra(RraConfig::new(1, 1, TpConfig::none()));
        let mut evals = 0;
        for _ in 0..2 {
            let r = cache.estimate(key, || {
                evals += 1;
                Err(SimError::InvalidConfig { what: "b_e", why: "test".into() })
            });
            assert!(r.is_err());
        }
        assert_eq!(evals, 1);
    }

    #[test]
    fn completion_info_is_shared_per_nd() {
        let cache = EvalCache::new();
        let out = LengthDist::truncated_normal(16.0, 8.0, 64).expect("valid");
        let a = cache.completion(&out, 8).expect("ok");
        let b = cache.completion(&out, 8).expect("ok");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.survival.len(), 8);
        assert_eq!(a.survival[0], 1.0);
        for u in 1..=8 {
            assert_eq!(a.survival[u - 1], a.dist.survival(u), "u={u}");
        }
    }
}
