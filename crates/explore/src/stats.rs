//! Programmatic execution-counter snapshots.
//!
//! The explore summary used to be the only place the cache hit/miss
//! counters and journal replay counts surfaced — printed, not
//! returned. [`EngineStats`] packages one snapshot of the whole
//! engine's counters (evaluation cache, crash-safety/recovery, journal
//! occupancy) so embedders — the `xps-serve` daemon's `/metrics`
//! endpoint, tests, dashboards — can read them without scraping
//! stderr.

use crate::cache::{CacheCounters, EvalCache};
use crate::recovery::{RecoveryStats, RunContext};
use serde::{Deserialize, Serialize};

/// A point-in-time snapshot of the exploration engine's execution
/// counters. Purely informational: results never depend on it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Evaluation-cache hit/miss counters.
    pub cache: CacheCounters,
    /// Crash-safety counters: executed vs journal-salvaged tasks,
    /// retries, injected faults, permanently failed tasks.
    pub recovery: RecoveryStats,
    /// Records currently held by the attached journal (0 when no
    /// journal is attached).
    pub journal_records: u64,
    /// Records the journal replayed from disk when it was opened
    /// (0 for a fresh journal or none).
    pub journal_loaded: u64,
}

impl EngineStats {
    /// Snapshot the counters of a live cache + run-context pair.
    pub fn snapshot(cache: &EvalCache, ctx: &RunContext) -> EngineStats {
        let (journal_records, journal_loaded) = match ctx.journal() {
            Some(j) => (j.len() as u64, j.loaded() as u64),
            None => (0, 0),
        };
        EngineStats {
            cache: cache.counters(),
            recovery: ctx.stats(),
            journal_records,
            journal_loaded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xps-stats-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn snapshot_reflects_cache_and_context() {
        let cache = EvalCache::new();
        let ctx = RunContext::new();
        let fan = ctx.run_fan(1, "t", 3, |_| None, |i| i as u64).expect("fan");
        assert_eq!(fan.items.len(), 3);
        let s = EngineStats::snapshot(&cache, &ctx);
        assert_eq!(s.cache, cache.counters());
        assert_eq!(s.recovery.executed, 3);
        assert_eq!((s.journal_records, s.journal_loaded), (0, 0));
    }

    #[test]
    fn snapshot_counts_journal_replay() {
        let path = tmp("replay");
        {
            let ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
            ctx.run_fan(1, "t", 2, |_| None, |i| i as u64).expect("fan");
        }
        let ctx = RunContext::new().with_journal(Journal::open(&path).expect("open"));
        ctx.run_fan(1, "t", 2, |_| None, |i| i as u64).expect("fan");
        let s = EngineStats::snapshot(&EvalCache::new(), &ctx);
        assert_eq!(s.recovery.salvaged, 2);
        assert_eq!(s.journal_records, 2);
        assert_eq!(s.journal_loaded, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn round_trips_through_json() {
        let s = EngineStats {
            cache: CacheCounters { hits: 3, misses: 1 },
            recovery: RecoveryStats {
                executed: 4,
                salvaged: 2,
                retried: 1,
                faults_injected: 0,
                failed_tasks: vec!["a#0/1".into()],
            },
            journal_records: 6,
            journal_loaded: 2,
        };
        let json = serde_json::to_string(&s).expect("serializes");
        let back: EngineStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, s);
    }
}
