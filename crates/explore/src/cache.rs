//! Memoized design-point evaluation.
//!
//! Annealing walks revisit configurations constantly — rollbacks return
//! to the best-so-far, cross-configuration seeding re-evaluates foreign
//! winners, the grid baseline shares lattice points across workloads,
//! and the communal replacement passes re-measure rows and columns that
//! mostly did not change. Because the simulator is a pure function of
//! (workload profile, configuration, op budget), all of those repeats
//! can be served from a cache with results **bit-identical** to fresh
//! simulation.
//!
//! The cache is sharded (64 ways) so parallel workers rarely contend,
//! and the simulation itself always runs outside any lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize};
use xps_sim::{ConfigKey, CoreConfig, SimStats, Simulator};
use xps_workload::WorkloadProfile;

const SHARDS: usize = 64;

/// The identity of one evaluation: which workload, which design (by its
/// name-independent canonical key), and how many ops were simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct EvalKey {
    profile_fp: u64,
    cfg: ConfigKey,
    ops: u64,
}

/// Hit/miss counters of an [`EvalCache`], cheap to copy into summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheCounters {
    /// Evaluations served from the cache without simulating.
    pub hits: u64,
    /// Evaluations that had to run the simulator.
    pub misses: u64,
}

impl CacheCounters {
    /// Fraction of lookups served from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded, thread-safe memoization cache mapping
/// (workload, configuration, op budget) to the resulting [`SimStats`].
///
/// Simulation is deterministic, so a hit returns exactly the stats a
/// fresh run would produce. Shared by reference across the worker pool;
/// one instance typically spans a whole pipeline run so the exploration
/// phase warms the cache for the communal cross-evaluation phase.
#[derive(Debug)]
pub struct EvalCache {
    shards: Vec<Mutex<HashMap<EvalKey, SimStats>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for EvalCache {
    fn default() -> EvalCache {
        EvalCache::new()
    }
}

impl EvalCache {
    /// An empty cache.
    pub fn new() -> EvalCache {
        EvalCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &EvalKey) -> &Mutex<HashMap<EvalKey, SimStats>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    fn key(profile: &WorkloadProfile, cfg: &CoreConfig, ops: u64) -> EvalKey {
        EvalKey {
            profile_fp: profile.fingerprint(),
            cfg: cfg.canonical_key(),
            ops,
        }
    }

    /// Record one lookup of `key` and answer it from the cache. A
    /// `pending` key is already being simulated by an earlier cell of
    /// the same batch: it counts as a hit and is answered from that
    /// cell.
    fn probe(&self, key: &EvalKey, pending: bool) -> Option<SimStats> {
        // The *lookup* is deterministic per task (how many evaluations
        // a walk asks for never depends on scheduling), so it may live
        // in the trace journal; whether it *hits* depends on which
        // racing worker populated the shared cache first, so the
        // outcome is recorded volatile-only.
        xps_trace::instant("cache.lookup", || xps_trace::attr("ops", key.ops));
        let found = if pending {
            None
        } else {
            self.shard(key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(key)
                .cloned()
        };
        if pending || found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            xps_trace::instant_volatile("cache.hit", xps_trace::Attrs::new);
        } else {
            xps_trace::instant_volatile("cache.miss", xps_trace::Attrs::new);
        }
        found
    }

    /// Store a freshly simulated result. Simulation runs outside every
    /// lock; if two workers race on the same key they both compute the
    /// same value and one insert wins.
    fn fill(&self, key: EvalKey, stats: &SimStats) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.shard(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert_with(|| stats.clone());
    }

    /// Simulate `profile` on `cfg` for `ops` micro-ops, or return the
    /// memoized result of an identical earlier evaluation.
    pub fn stats(&self, profile: &WorkloadProfile, cfg: &CoreConfig, ops: u64) -> SimStats {
        let key = EvalCache::key(profile, cfg, ops);
        if let Some(stats) = self.probe(&key, false) {
            return stats;
        }
        let stats = xps_sim::evaluate(profile, cfg, ops);
        self.fill(key, &stats);
        stats
    }

    /// [`stats`](EvalCache::stats) for many configurations of one
    /// workload at once, in order. Each configuration is looked up as
    /// by `stats`; the misses are simulated together in lock-step
    /// ([`xps_sim::run_lockstep`]), so their shared trace is produced
    /// once for the batch. A configuration repeated within the batch
    /// (by canonical key) is simulated once and served to the repeat as
    /// a hit, as a serial sequence of `stats` calls would. Every trace
    /// event of configuration `k` — its lookup, hit or miss, and
    /// simulator close — is recorded inside `in_cell(k, ..)`, so a
    /// batched fan can file each cell's events under the cell's own
    /// task track.
    pub(crate) fn stats_batch(
        &self,
        profile: &WorkloadProfile,
        configs: &[&CoreConfig],
        ops: u64,
        in_cell: &mut dyn FnMut(usize, &mut dyn FnMut()),
    ) -> Vec<SimStats> {
        let keys: Vec<EvalKey> = configs
            .iter()
            .map(|cfg| EvalCache::key(profile, cfg, ops))
            .collect();
        let mut found: Vec<Option<SimStats>> = vec![None; configs.len()];
        // `source[k]`: the cell whose result answers cell k — itself,
        // or the batch's first miss with the same key.
        let mut source: Vec<usize> = (0..configs.len()).collect();
        let mut misses: Vec<usize> = Vec::new();
        for k in 0..configs.len() {
            let pending = misses.iter().copied().find(|&m| keys[m] == keys[k]);
            in_cell(k, &mut || {
                found[k] = self.probe(&keys[k], pending.is_some())
            });
            match pending {
                Some(m) => source[k] = m,
                None if found[k].is_none() => misses.push(k),
                None => {}
            }
        }
        let mut sims: Vec<Simulator> = misses.iter().map(|&k| Simulator::new(configs[k])).collect();
        xps_sim::run_lockstep(profile, &mut sims, ops);
        for (&k, sim) in misses.iter().zip(sims) {
            let mut sim = Some(sim);
            in_cell(k, &mut || found[k] = sim.take().map(Simulator::finish));
            if let Some(stats) = &found[k] {
                self.fill(keys[k], stats);
            }
        }
        source
            .iter()
            .map(|&m| {
                found[m]
                    .clone()
                    .unwrap_or_else(|| unreachable!("every cell is found or simulated"))
            })
            .collect()
    }

    /// Memoized IPT (instructions per nanosecond) of `cfg` on `profile`.
    pub fn ipt(&self, profile: &WorkloadProfile, cfg: &CoreConfig, ops: u64) -> f64 {
        self.stats(profile, cfg, ops).ipt()
    }

    /// Snapshot of the hit/miss counters.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct evaluations stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no evaluations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xps_sim::Simulator;
    use xps_workload::{spec, TraceGenerator};

    const OPS: u64 = 4000;

    #[test]
    fn hit_returns_bit_identical_stats() {
        let cache = EvalCache::new();
        let p = spec::profile("gzip").expect("gzip exists");
        let cfg = CoreConfig::initial();
        let fresh = Simulator::new(&cfg).run(TraceGenerator::new(p.clone()), OPS);
        let miss = cache.stats(&p, &cfg, OPS);
        let hit = cache.stats(&p, &cfg, OPS);
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn rename_hits_but_any_parameter_change_misses() {
        let cache = EvalCache::new();
        let p = spec::profile("mcf").expect("mcf exists");
        let cfg = CoreConfig::initial();
        cache.stats(&p, &cfg, OPS);
        let mut renamed = cfg.clone();
        renamed.name = "mcf-custom".to_string();
        cache.stats(&p, &renamed, OPS);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 1 });
        let mut widened = cfg.clone();
        widened.width += 1;
        cache.stats(&p, &widened, OPS);
        cache.stats(&p, &cfg, OPS * 2);
        let other = spec::profile("gcc").expect("gcc exists");
        cache.stats(&other, &cfg, OPS);
        assert_eq!(cache.counters(), CacheCounters { hits: 1, misses: 4 });
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn shared_across_threads() {
        let cache = EvalCache::new();
        let p = spec::profile("twolf").expect("twolf exists");
        let cfg = CoreConfig::initial();
        let serial = cache.stats(&p, &cfg, OPS);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    assert_eq!(cache.stats(&p, &cfg, OPS), serial);
                });
            }
        });
        let c = cache.counters();
        assert_eq!(c.hits + c.misses, 5);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn batch_matches_single_lookups_and_serves_repeats_as_hits() {
        let cache = EvalCache::new();
        let p = spec::profile("gcc").expect("gcc exists");
        let base = CoreConfig::initial();
        let mut wide = base.clone();
        wide.width += 1;
        let mut renamed = base.clone();
        renamed.name = "gcc-custom".to_string();
        let fresh = |cfg: &CoreConfig| Simulator::new(cfg).run(TraceGenerator::new(p.clone()), OPS);
        cache.stats(&p, &wide, OPS);
        let got = cache.stats_batch(&p, &[&base, &wide, &renamed], OPS, &mut |_, f| f());
        assert_eq!(got, vec![fresh(&base), fresh(&wide), fresh(&base)]);
        // `wide` was cached and `renamed` repeats `base`: two hits; the
        // batch simulated `base` alone.
        assert_eq!(cache.counters(), CacheCounters { hits: 2, misses: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_rate_arithmetic() {
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        let c = CacheCounters { hits: 3, misses: 1 };
        assert!((c.hit_rate() - 0.75).abs() < 1e-12);
    }
}
