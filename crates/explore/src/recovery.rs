//! Panic-isolated, retrying, journaled task execution.
//!
//! [`RunContext`] wraps the raw worker pool of [`run_parallel`] with
//! the three crash-safety behaviours the long-haul pipeline needs:
//!
//! * **Panic isolation** — every task runs under `catch_unwind`, so a
//!   panicking evaluation becomes a typed [`TaskError`] instead of
//!   tearing down the whole campaign.
//! * **Bounded retries** — a failed attempt is retried up to the
//!   context's retry budget before the task is declared failed; the
//!   caller then degrades (skip the start, report the cell) rather
//!   than aborting.
//! * **Write-ahead journaling** — each completed task result is
//!   persisted through the [`Journal`] before the fan-out returns it,
//!   and journaled results are replayed instead of re-executed, which
//!   is what makes `--resume` re-run only the missing work.
//!
//! Task identity is `label#fan/item`: the fan sequence number is
//! deterministic because the pipeline's control flow is a pure
//! function of task results, which are themselves deterministic — so
//! a resumed run asks for exactly the same keys in exactly the same
//! order.

use crate::anneal::{anneal, anneal_batch, AnnealResult, Walk};
use crate::cache::EvalCache;
use crate::error::{ExploreError, TaskError, TaskFailure};
use crate::fault::{FaultKind, FaultPlan};
use crate::journal::{Journal, JournalError};
use crate::parallel::{resolve_jobs, run_parallel_weighted};
use crate::task::{TaskDispatcher, TaskSpec};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use xps_cacti::Technology;
use xps_trace::{with_recorder, ProgressEvent, ProgressSink, SpanRecorder, TraceSink};
use xps_workload::WorkloadProfile;

/// Default retry budget: a task may fail twice and still succeed on
/// its third attempt before being declared failed.
pub const DEFAULT_RETRIES: u32 = 2;

/// Counters of one run's crash-safety machinery. Informational — the
/// explored results never depend on them — except `failed_tasks`,
/// which lists every task that exhausted its retries and was degraded
/// around.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Tasks executed in this process (successful attempts).
    pub executed: u64,
    /// Tasks served from the journal without re-running.
    pub salvaged: u64,
    /// Extra attempts made after a failed first attempt.
    pub retried: u64,
    /// Faults the [`FaultPlan`] injected.
    pub faults_injected: u64,
    /// Journal keys of tasks that failed every attempt.
    pub failed_tasks: Vec<String>,
}

/// The outcome of one journaled fan-out: per-item results in item
/// order (failed tasks carry their [`TaskError`]) plus the pool's
/// per-worker task counts.
#[derive(Debug)]
pub struct FanOutcome<T> {
    /// Item `i` holds task `i`'s result or its terminal error.
    pub items: Vec<Result<T, TaskError>>,
    /// How many items each worker ran (journal-salvaged items are not
    /// counted — they never reached the pool).
    pub per_worker: Vec<u64>,
}

/// A fan's per-item results while it runs: `None` until item `i` is
/// salvaged or has run.
type Slots<T> = Vec<Option<Result<T, TaskError>>>;

/// Runs the items `unit` of a fan as one lock-step batch, recording
/// the trace events of the `k`-th inside `in_item(k, ..)`, and returns
/// each item's value in unit order — `None` for an item that must run
/// alone instead.
type BatchFn<'f, T> =
    dyn Fn(&[usize], &mut dyn FnMut(usize, &mut dyn FnMut())) -> Vec<Option<T>> + Sync + 'f;

/// Which items of a fan may share a lock-step batch, and how a batch
/// runs.
struct Batching<'f, T, G> {
    /// Item `i`'s batch group (items with equal groups may share a
    /// batch); `None` runs the item alone.
    group: &'f dyn Fn(usize) -> Option<G>,
    /// Cut each group into about one batch per worker (a row of
    /// cells), instead of running it whole (a workload's walks).
    split: bool,
    /// Runs one batch.
    run: &'f BatchFn<'f, T>,
}

/// One cell of an evaluation fan ([`RunContext::run_eval_fan`]): the
/// IPT of `config` on `profile` over `ops` micro-ops.
#[derive(Debug, Clone, Copy)]
pub struct EvalCell<'a> {
    /// The workload.
    pub profile: &'a WorkloadProfile,
    /// The configuration it runs on.
    pub config: &'a xps_sim::CoreConfig,
    /// Trace length in micro-ops.
    pub ops: u64,
}

/// One walk of an annealing fan ([`RunContext::run_walk_fan`]).
#[derive(Debug, Clone, Copy)]
pub struct WalkCell<'a> {
    /// The workload.
    pub profile: &'a WorkloadProfile,
    /// The walk: its start, its options (multi-start seed included)
    /// and its progress sink.
    pub walk: Walk<'a>,
}

/// Crash-safety context threaded through an exploration run: the
/// optional checkpoint journal, the optional fault plan, the retry
/// budget, and the counters that report what happened.
#[derive(Debug)]
pub struct RunContext {
    journal: Option<Journal>,
    faults: Option<FaultPlan>,
    cancel: Option<Arc<AtomicBool>>,
    observer: Option<ProgressSink>,
    trace: Option<TraceSink>,
    dispatcher: Option<Arc<dyn TaskDispatcher>>,
    retries: u32,
    fan_seq: AtomicU64,
    executed: AtomicU64,
    salvaged: AtomicU64,
    retried: AtomicU64,
    injected: AtomicU64,
    remote: AtomicU64,
    failed: Mutex<Vec<String>>,
    journal_error: Mutex<Option<JournalError>>,
}

impl Default for RunContext {
    fn default() -> RunContext {
        RunContext::new()
    }
}

impl RunContext {
    /// A context with no journal, no faults, and the default retry
    /// budget.
    pub fn new() -> RunContext {
        RunContext {
            journal: None,
            faults: None,
            cancel: None,
            observer: None,
            trace: None,
            dispatcher: None,
            retries: DEFAULT_RETRIES,
            fan_seq: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            salvaged: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            remote: AtomicU64::new(0),
            failed: Mutex::new(Vec::new()),
            journal_error: Mutex::new(None),
        }
    }

    /// [`RunContext::new`] plus the fault plan configured in the
    /// `XPS_FAULTS` environment variable, when set. This is what the
    /// default pipeline entry points use, so CI can exercise the
    /// isolation and retry paths of the entire test suite by exporting
    /// one variable.
    ///
    /// # Errors
    ///
    /// Returns [`ExploreError::InvalidOptions`] for a malformed
    /// `XPS_FAULTS` value.
    pub fn from_env() -> Result<RunContext, ExploreError> {
        let faults = FaultPlan::from_env().map_err(ExploreError::InvalidOptions)?;
        Ok(RunContext {
            faults,
            ..RunContext::new()
        })
    }

    /// Attach a checkpoint journal: completed tasks are persisted and
    /// already-journaled tasks are replayed instead of re-run.
    pub fn with_journal(mut self, journal: Journal) -> RunContext {
        self.journal = Some(journal);
        self
    }

    /// Attach a fault plan (tests and the `--faults` flag).
    pub fn with_faults(mut self, faults: FaultPlan) -> RunContext {
        self.faults = Some(faults);
        self
    }

    /// Attach a cancellation flag (graceful shutdown). Once the flag
    /// is set, not-yet-started tasks are skipped and the surrounding
    /// fan returns [`ExploreError::Cancelled`]; tasks that already
    /// completed are journaled as usual, so a resumed run re-executes
    /// only the skipped work.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> RunContext {
        self.cancel = Some(cancel);
        self
    }

    /// Attach a progress observer, called once per finished task
    /// (executed or journal-salvaged) and, in a campaign, once per
    /// annealing iteration. Observational only: results are
    /// bit-identical with or without an observer.
    pub fn with_observer(mut self, observer: ProgressSink) -> RunContext {
        self.observer = Some(observer);
        self
    }

    /// Attach a trace sink: every executed task records its spans into
    /// a private per-task recorder, filed under the task's journal key
    /// when the task succeeds. Tracks are keyed deterministically, so
    /// the serialized trace is byte-identical across worker counts.
    /// Caller-thread events (phase spans, salvage instants) land in
    /// whatever recorder the process edge installed.
    pub fn with_trace(mut self, trace: TraceSink) -> RunContext {
        self.trace = Some(trace);
        self
    }

    /// Attach a task dispatcher: fan items that describe themselves as
    /// a [`TaskSpec`] are offered to it before running locally. A
    /// declined or undecodable dispatch falls back to the local
    /// closure, so attaching a dispatcher never changes results — only
    /// where tasks execute. Remote results skip local span recording
    /// (their spans live on the worker) but journal identically.
    pub fn with_dispatcher(mut self, dispatcher: Arc<dyn TaskDispatcher>) -> RunContext {
        self.dispatcher = Some(dispatcher);
        self
    }

    /// The attached progress observer, if any. Campaigns also stream
    /// their annealing steps to it.
    pub fn observer(&self) -> Option<&ProgressSink> {
        self.observer.as_ref()
    }

    /// The attached trace sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// How many tasks a dispatcher ran remotely (informational; not
    /// part of [`RecoveryStats`], whose serialized shape is stable).
    pub fn remote_dispatched(&self) -> u64 {
        self.remote.load(Ordering::Relaxed)
    }

    /// Whether the cancellation flag is set.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// Override the retry budget (extra attempts after a failure).
    pub fn with_retries(mut self, retries: u32) -> RunContext {
        self.retries = retries;
        self
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Detach and return the journal (to discard it after a completed
    /// run).
    pub fn take_journal(&mut self) -> Option<Journal> {
        self.journal.take()
    }

    /// Snapshot of the recovery counters.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            executed: self.executed.load(Ordering::Relaxed),
            salvaged: self.salvaged.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            faults_injected: self.injected.load(Ordering::Relaxed),
            failed_tasks: self
                .failed
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }

    /// Evaluate tasks `f(0) … f(n-1)` on `jobs` workers with panic
    /// isolation, retries, and journaling. Results come back in item
    /// order; a task that failed every attempt yields `Err(TaskError)`
    /// in its slot (and is listed in [`RecoveryStats::failed_tasks`])
    /// so the caller can degrade instead of aborting.
    ///
    /// `label` names the fan in the journal keyspace; each call gets a
    /// fresh fan sequence number, so keys are unique and reproducible
    /// across a resumed run.
    ///
    /// Items that can describe themselves as wire-format [`TaskSpec`]s
    /// may be relocated: when a dispatcher is attached, each missing
    /// item is first offered to it (`describe(i)` →
    /// [`TaskDispatcher::dispatch`]); a successful dispatch's body is
    /// decoded as the item value, and any decline or decode failure
    /// falls back to the local closure `f`. An item whose `describe`
    /// returns `None` always runs locally. Journaling, retries,
    /// cancellation, and result ordering are identical either way,
    /// which is what keeps a fleet-gathered campaign byte-identical to
    /// a single-node run.
    ///
    /// # Errors
    ///
    /// Only journal problems (unreadable record, failed persist) and
    /// cancellation abort the fan — task failures are per-item by
    /// design.
    pub fn run_fan<T, F, D>(
        &self,
        jobs: usize,
        label: &str,
        n: usize,
        describe: D,
        f: F,
    ) -> Result<FanOutcome<T>, ExploreError>
    where
        T: Send + Serialize + Deserialize,
        F: Fn(usize) -> T + Sync,
        D: Fn(usize) -> Option<TaskSpec> + Sync,
    {
        self.run_units(
            jobs,
            label,
            n,
            &describe,
            &|i| Ok(f(i)),
            None::<Batching<'_, T, ()>>,
        )
    }

    /// A fan of IPT measurements, one item per cell: a `None`
    /// cell is a constant `None` item (the cross-seeding diagonal), a
    /// `Some` cell measures its configuration on its workload through
    /// `cache`. Item for item this is the
    /// [`run_fan`](RunContext::run_fan) fan of
    /// `TaskSpec::eval` descriptions over `cache.ipt` closures — same
    /// journal keys and records, dispatch, fault-injection attempts,
    /// retries and per-cell trace events — but the cells that run
    /// locally are grouped by workload and trace length, and each group
    /// is split into about one lock-step batch per worker (looked up
    /// and simulated by `EvalCache::stats_batch`), so a trace is
    /// produced once per batch instead of once per cell.
    ///
    /// A cell runs alone, exactly as in `run_fan`, when a
    /// dispatcher is attached (every cell is offered to it), when the
    /// fault plan injects into its first attempt, or when its batch
    /// panics (every cell of the batch then re-runs on its own,
    /// starting from its first attempt).
    ///
    /// # Errors
    ///
    /// As [`run_fan`](RunContext::run_fan): only journal problems.
    pub fn run_eval_fan(
        &self,
        jobs: usize,
        label: &str,
        cells: &[Option<EvalCell<'_>>],
        cache: &EvalCache,
    ) -> Result<FanOutcome<Option<f64>>, ExploreError> {
        let describe = |i: usize| cells[i].map(|c| TaskSpec::eval(c.profile, c.config, c.ops));
        let single = |i: usize| Ok(cells[i].map(|c| cache.ipt(c.profile, c.config, c.ops)));
        let run = |unit: &[usize], in_cell: &mut dyn FnMut(usize, &mut dyn FnMut())| {
            let batch: Vec<EvalCell<'_>> = unit.iter().filter_map(|&i| cells[i]).collect();
            let configs: Vec<&xps_sim::CoreConfig> = batch.iter().map(|c| c.config).collect();
            cache
                .stats_batch(batch[0].profile, &configs, batch[0].ops, in_cell)
                .iter()
                .map(|stats| Some(Some(stats.ipt())))
                .collect()
        };
        let batching = Batching {
            group: &|i: usize| cells[i].map(|c| (c.profile, c.ops)),
            split: true,
            run: &run,
        };
        self.run_units(jobs, label, cells.len(), &describe, &single, Some(batching))
    }

    /// A fan of annealing walks, one item per walk, each realized
    /// against `tech` through `cache`. Item for item this is the
    /// [`run_fan`](RunContext::run_fan) fan of `TaskSpec::anneal`
    /// descriptions over [`anneal`] closures — same journal keys and
    /// records, dispatch, fault-injection attempts, retries, per-walk
    /// trace tracks and progress events — but the walks that run
    /// locally are grouped by workload, and each group runs whole as
    /// one [`anneal_batch`], so every iteration's candidates share one
    /// trace.
    ///
    /// A walk runs alone when a dispatcher is attached, when the fault
    /// plan injects into its first attempt, when its start cannot be
    /// realized, or when its group panics (every walk of the group then
    /// re-runs on its own, starting from its first attempt).
    ///
    /// # Errors
    ///
    /// As [`run_fan`](RunContext::run_fan): only journal problems.
    pub fn run_walk_fan(
        &self,
        jobs: usize,
        label: &str,
        walks: &[WalkCell<'_>],
        tech: &Technology,
        cache: &EvalCache,
    ) -> Result<FanOutcome<AnnealResult>, ExploreError> {
        let describe = |i: usize| {
            let WalkCell { profile, walk } = walks[i];
            Some(TaskSpec::anneal(profile, walk.start, walk.opts, tech))
        };
        let single = |i: usize| {
            let WalkCell { profile, walk } = walks[i];
            anneal(profile, walk.start, walk.opts, tech, cache, walk.progress)
                .map_err(|e| e.to_string())
        };
        let run = |unit: &[usize], in_walk: &mut dyn FnMut(usize, &mut dyn FnMut())| {
            let batch: Vec<Walk<'_>> = unit.iter().map(|&i| walks[i].walk).collect();
            anneal_batch(walks[unit[0]].profile, &batch, tech, cache, in_walk)
                .into_iter()
                .map(Result::ok)
                .collect()
        };
        let batching = Batching {
            group: &|i: usize| Some(walks[i].profile),
            split: false,
            run: &run,
        };
        self.run_units(jobs, label, walks.len(), &describe, &single, Some(batching))
    }

    /// The fan runner behind every public fan: open the fan, plan its
    /// missing items into units (lock-step batches under `batching`,
    /// single items otherwise), run the units on `jobs` workers, and
    /// close the fan. A unit whose batch does not run — or an item the
    /// batch leaves out — runs item by item through
    /// [`run_item`](RunContext::run_item).
    fn run_units<T, G: PartialEq>(
        &self,
        jobs: usize,
        label: &str,
        n: usize,
        describe: &(dyn Fn(usize) -> Option<TaskSpec> + Sync),
        single: &(dyn Fn(usize) -> Result<T, String> + Sync),
        batching: Option<Batching<'_, T, G>>,
    ) -> Result<FanOutcome<T>, ExploreError>
    where
        T: Send + Serialize + Deserialize,
    {
        let (key_of, mut slots, missing) = self.open_fan(label, n)?;
        let units = self.plan_units(jobs, &missing, &key_of, batching.as_ref());
        let batch = batching.map(|b| b.run);
        let run = run_parallel_weighted(
            jobs,
            units.len(),
            |u| units[u].len() as u64,
            |u| {
                let unit = &units[u];
                let mut batched = batch
                    .and_then(|run| self.run_batch(unit, &key_of, run))
                    .unwrap_or_default()
                    .into_iter();
                unit.iter()
                    .map(|&i| {
                        batched
                            .next()
                            .flatten()
                            .unwrap_or_else(|| self.run_item(&key_of(i), i, describe, single))
                    })
                    .collect::<Vec<_>>()
            },
        );
        for (unit, results) in units.iter().zip(run.results) {
            for (&i, result) in unit.iter().zip(results) {
                slots[i] = Some(result);
            }
        }
        self.close_fan(slots, run.per_worker)
    }

    /// Partition the `missing` items of a fan into units of work, in
    /// item order: lock-step batches of items in one `batching` group,
    /// and single items — every item when there is no batching, and
    /// any item a dispatcher may relocate or the fault plan injects
    /// into on its first attempt. With `split`, a group of `g` items is
    /// cut into `min(workers, g)` near-equal batches, so one long row
    /// still occupies every worker.
    fn plan_units<T, G: PartialEq>(
        &self,
        jobs: usize,
        missing: &[usize],
        key_of: &dyn Fn(usize) -> String,
        batching: Option<&Batching<'_, T, G>>,
    ) -> Vec<Vec<usize>> {
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut groups: Vec<(G, Vec<usize>)> = Vec::new();
        for &i in missing {
            let group = batching.and_then(|b| (b.group)(i)).filter(|_| {
                self.dispatcher.is_none()
                    && self
                        .faults
                        .as_ref()
                        .is_none_or(|p| p.injects(&key_of(i), 0).is_none())
            });
            let Some(group) = group else {
                units.push(vec![i]);
                continue;
            };
            match groups.iter_mut().find(|(g, _)| *g == group) {
                Some((_, members)) => members.push(i),
                None => groups.push((group, vec![i])),
            }
        }
        let workers = match batching {
            Some(b) if b.split => resolve_jobs(jobs),
            _ => 1,
        };
        for (_, group) in groups {
            let size = group.len().div_ceil(workers.min(group.len()));
            units.extend(group.chunks(size).map(<[usize]>::to_vec));
        }
        units.sort_by_key(|unit| unit[0]);
        units
    }

    /// Run one planned unit as a single lock-step batch, with each
    /// item's bookkeeping — executed count, trace track, journal
    /// record, progress event — exactly as a successful first attempt
    /// of that item would leave it. Returns `None` without side effects
    /// on the run's outcome (a single item, a cancelled run, or a
    /// panicking batch), and the caller then runs the unit item by
    /// item; an item the batch returns `None` for is left to the caller
    /// the same way.
    fn run_batch<T: Serialize>(
        &self,
        unit: &[usize],
        key_of: &dyn Fn(usize) -> String,
        run: &BatchFn<'_, T>,
    ) -> Option<Vec<Option<Result<T, TaskError>>>> {
        if unit.len() < 2 || self.cancelled() {
            return None;
        }
        let mut tracks: Vec<Option<SpanRecorder>> = unit
            .iter()
            .map(|_| self.trace.as_ref().map(TraceSink::recorder))
            .collect();
        // Items are pure functions of their inputs: nothing observes a
        // half-updated state after an unwind (the per-item re-run
        // starts afresh), so AssertUnwindSafe is sound here.
        let mut batch = || {
            catch_unwind(AssertUnwindSafe(|| {
                run(unit, &mut |k, f| match tracks[k].take() {
                    Some(rec) => tracks[k] = Some(with_recorder(rec, f).0),
                    None => f(),
                })
            }))
        };
        // A traced batch runs under a throwaway recorder, so an event left
        // outside every item's track (a span guard dropped by an
        // unwind) reaches no caller track.
        let values = match self.trace {
            Some(_) => with_recorder(SpanRecorder::new(), batch).1,
            None => batch(),
        };
        let results = unit
            .iter()
            .zip(values.ok()?)
            .zip(tracks)
            .map(|((&i, value), track)| {
                let key = key_of(i);
                let result = Ok(value?);
                self.executed.fetch_add(1, Ordering::Relaxed);
                if let (Some(trace), Some(rec)) = (&self.trace, track) {
                    trace.attach(&key, rec);
                }
                self.record(key, &result);
                Some(result)
            })
            .collect();
        Some(results)
    }

    /// Open a fan: draw its sequence number and salvage every
    /// journaled item. Returns the fan's key function, one slot per
    /// item (salvaged ones filled), and the items still to run.
    #[allow(clippy::type_complexity)]
    fn open_fan<T: Deserialize>(
        &self,
        label: &str,
        n: usize,
    ) -> Result<(impl Fn(usize) -> String, Slots<T>, Vec<usize>), ExploreError> {
        let fan = self.fan_seq.fetch_add(1, Ordering::Relaxed);
        let label = label.to_string();
        let key_of = move |i: usize| format!("{label}#{fan}/{i}");
        if self.cancelled() {
            return Err(ExploreError::Cancelled);
        }
        let mut slots: Slots<T> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut missing: Vec<usize> = Vec::with_capacity(n);
        let Some(journal) = &self.journal else {
            missing.extend(0..n);
            return Ok((key_of, slots, missing));
        };
        for (i, slot) in slots.iter_mut().enumerate() {
            let key = key_of(i);
            match journal.get(&key) {
                Some(json) => {
                    let value: T =
                        serde_json::from_str(&json).map_err(|e| JournalError::Corrupt {
                            path: journal.path().to_path_buf(),
                            line: 0,
                            detail: format!("task `{key}` does not deserialize: {e}"),
                        })?;
                    self.salvaged.fetch_add(1, Ordering::Relaxed);
                    // Salvages happen serially on the caller thread, so
                    // this instant lands on the edge recorder in
                    // deterministic order.
                    xps_trace::instant("journal.salvage", || xps_trace::attr("task", key.as_str()));
                    if let Some(obs) = &self.observer {
                        obs.emit(&ProgressEvent::TaskDone {
                            key,
                            salvaged: true,
                        });
                    }
                    *slot = Some(Ok(value));
                }
                None => missing.push(i),
            }
        }
        Ok((key_of, slots, missing))
    }

    /// Run one fan item — remotely when a dispatcher takes it, locally
    /// otherwise — and record its outcome.
    fn run_item<T: Serialize + Deserialize>(
        &self,
        key: &str,
        i: usize,
        describe: &dyn Fn(usize) -> Option<TaskSpec>,
        f: &dyn Fn(usize) -> Result<T, String>,
    ) -> Result<T, TaskError> {
        let result = match self.dispatch_remote(key, i, describe) {
            Some(value) => Ok(value),
            None => self.run_local(key, i, f),
        };
        self.record(key.to_string(), &result);
        result
    }

    /// Journal a finished item's value and report it to the observer.
    /// A persist failure keeps the computed value and is surfaced once
    /// the fan completes.
    fn record<T: Serialize>(&self, key: String, result: &Result<T, TaskError>) {
        let Ok(value) = result else {
            return;
        };
        if let Some(journal) = &self.journal {
            let json =
                // xps-allow(no-unwrap-in-lib): task results are plain data structs; serialization cannot fail
                serde_json::to_string(value).expect("task results serialize to JSON");
            if let Err(e) = journal.record(&key, json) {
                let mut slot = self
                    .journal_error
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                slot.get_or_insert(e);
            }
        }
        if let Some(obs) = &self.observer {
            obs.emit(&ProgressEvent::TaskDone {
                key,
                salvaged: false,
            });
        }
    }

    /// Close a fan: surface a journal failure or cancellation, else
    /// return every item in order.
    fn close_fan<T>(
        &self,
        slots: Slots<T>,
        per_worker: Vec<u64>,
    ) -> Result<FanOutcome<T>, ExploreError> {
        if let Some(e) = self
            .journal_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            return Err(e.into());
        }
        // A cancelled fan aborts the run *after* persisting whatever
        // completed: the journal now holds every finished task, and the
        // skipped ones re-run on resume.
        if self.cancelled() {
            return Err(ExploreError::Cancelled);
        }
        let items = slots
            .into_iter()
            // xps-allow(no-unwrap-in-lib): the fan joins only after every task stored its slot or the run aborted with an error
            .map(|s| s.expect("every slot filled"))
            .collect();
        Ok(FanOutcome { items, per_worker })
    }

    /// [`run_fan`](RunContext::run_fan) for a single inline task (the
    /// re-anneal after a cross-seeding adoption), with its wire
    /// description so an attached dispatcher can relocate it too. An
    /// `Err` from `f` fails the attempt like an injected error: it is
    /// retried, and reported once every attempt failed.
    ///
    /// # Errors
    ///
    /// As [`run_fan`](RunContext::run_fan): only journal problems.
    pub fn run_task<T, F>(
        &self,
        label: &str,
        spec: TaskSpec,
        f: F,
    ) -> Result<Result<T, TaskError>, ExploreError>
    where
        T: Send + Serialize + Deserialize,
        F: Fn() -> Result<T, String> + Sync,
    {
        let describe = |_| Some(spec.clone());
        let mut fan = self.run_units(
            1,
            label,
            1,
            &describe,
            &|_| f(),
            None::<Batching<'_, T, ()>>,
        )?;
        // xps-allow(no-unwrap-in-lib): run_fan(1, ..) returns exactly one item on success
        Ok(fan.items.pop().expect("one item"))
    }

    /// Offer one fan item to the attached dispatcher. Any reason not
    /// to run remotely — no dispatcher, no task description, a
    /// cancelled run, a declined dispatch, or a response body that
    /// does not decode as the item type — yields `None`, and the item
    /// runs locally instead.
    fn dispatch_remote<T: Deserialize>(
        &self,
        key: &str,
        i: usize,
        describe: &dyn Fn(usize) -> Option<TaskSpec>,
    ) -> Option<T> {
        let dispatcher = self.dispatcher.as_ref()?;
        if self.cancelled() {
            return None;
        }
        let spec = describe(i)?;
        let body = dispatcher.dispatch(key, &spec)?;
        match serde_json::from_str::<T>(&body) {
            Ok(value) => {
                self.remote.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            // A body that parsed as JSON upstream but not as the item
            // type is treated like any other bad response: degrade to
            // local execution.
            Err(_) => None,
        }
    }

    /// Run one fan item on this machine, recording its spans when a
    /// trace sink is attached.
    fn run_local<T>(
        &self,
        key: &str,
        i: usize,
        f: &dyn Fn(usize) -> Result<T, String>,
    ) -> Result<T, TaskError> {
        match &self.trace {
            Some(trace) => {
                // Record the task into a private recorder whose
                // logical clock starts at zero; attach it under
                // the deterministic task key only on success,
                // so failed attempts leave no trace events.
                let (rec, result) = with_recorder(trace.recorder(), || self.attempt(key, || f(i)));
                if result.is_ok() {
                    trace.attach(key, rec);
                }
                result
            }
            None => self.attempt(key, || f(i)),
        }
    }

    /// Run one task with fault injection, panic isolation, and
    /// retries. A panic or an `Err` from `f` fails the attempt.
    fn attempt<T>(&self, key: &str, f: impl Fn() -> Result<T, String>) -> Result<T, TaskError> {
        let max_attempts = self.retries.saturating_add(1);
        let mut failure = TaskFailure::Failed("no attempts made".into());
        for attempt in 0..max_attempts {
            // Cancellation short-circuits tasks that have not run yet;
            // this is a skip, not a failure, so it is neither retried
            // nor listed in the failed-task report.
            if self.cancelled() {
                return Err(TaskError {
                    task: key.to_string(),
                    attempts: attempt,
                    failure: TaskFailure::Cancelled,
                });
            }
            if attempt > 0 {
                self.retried.fetch_add(1, Ordering::Relaxed);
            }
            let injected = self.faults.as_ref().and_then(|p| p.injects(key, attempt));
            if injected.is_some() {
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
            if injected == Some(FaultKind::Error) {
                failure = TaskFailure::Failed(format!("injected fault (attempt {attempt})"));
                continue;
            }
            // Tasks are pure functions of their index: nothing observes
            // a half-updated state after an unwind, so AssertUnwindSafe
            // is sound here.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if injected == Some(FaultKind::Panic) {
                    panic!("injected fault in `{key}` (attempt {attempt})");
                }
                f()
            }));
            match outcome {
                Ok(Ok(value)) => {
                    self.executed.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                Ok(Err(msg)) => failure = TaskFailure::Failed(msg),
                Err(payload) => failure = TaskFailure::Panicked(panic_message(payload.as_ref())),
            }
        }
        self.failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(key.to_string());
        Err(TaskError {
            task: key.to_string(),
            attempts: max_attempts,
            failure,
        })
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;

    /// A fan whose items never describe themselves, so they always run
    /// locally.
    fn local_fan<T, F>(
        ctx: &RunContext,
        jobs: usize,
        label: &str,
        n: usize,
        f: F,
    ) -> Result<FanOutcome<T>, ExploreError>
    where
        T: Send + Serialize + Deserialize,
        F: Fn(usize) -> T + Sync,
    {
        ctx.run_fan(jobs, label, n, |_| None, f)
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xps-recovery-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn clean_fan_matches_direct_evaluation() {
        let ctx = RunContext::new();
        let fan = local_fan(&ctx, 3, "sq", 10, |i| (i * i) as u64).expect("fan");
        let values: Vec<u64> = fan.items.into_iter().map(|r| r.expect("ok")).collect();
        assert_eq!(values, (0..10).map(|i| (i * i) as u64).collect::<Vec<_>>());
        let s = ctx.stats();
        assert_eq!(s.executed, 10);
        assert_eq!((s.salvaged, s.retried, s.faults_injected), (0, 0, 0));
    }

    #[test]
    fn injected_panics_retry_to_success() {
        let ctx = RunContext::new()
            .with_faults(FaultPlan::rate(100, 0, 2, FaultKind::Panic))
            .with_retries(2);
        let fan = local_fan(&ctx, 2, "t", 6, |i| i as u64).expect("fan");
        for (i, r) in fan.items.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("third attempt succeeds"), i as u64);
        }
        let s = ctx.stats();
        assert_eq!(s.executed, 6);
        assert_eq!(s.retried, 12, "two retries per task");
        assert_eq!(s.faults_injected, 12);
        assert!(s.failed_tasks.is_empty());
    }

    #[test]
    fn exhausted_retries_isolate_the_failing_task() {
        let ctx = RunContext::new()
            .with_faults(FaultPlan::targets(["t#0/2"], u32::MAX, FaultKind::Panic))
            .with_retries(1);
        let fan = local_fan(&ctx, 2, "t", 5, |i| i as u64).expect("fan");
        for (i, r) in fan.items.iter().enumerate() {
            if i == 2 {
                let e = r.as_ref().expect_err("task 2 fails permanently");
                assert_eq!(e.attempts, 2);
                assert!(matches!(e.failure, TaskFailure::Panicked(_)));
            } else {
                assert_eq!(*r.as_ref().expect("others unaffected"), i as u64);
            }
        }
        assert_eq!(ctx.stats().failed_tasks, vec!["t#0/2".to_string()]);
    }

    #[test]
    fn error_faults_fail_without_unwinding() {
        let ctx = RunContext::new()
            .with_faults(FaultPlan::targets(["t#0/0"], u32::MAX, FaultKind::Error))
            .with_retries(0);
        let fan = local_fan(&ctx, 1, "t", 1, |i| i as u64).expect("fan");
        let e = fan.items[0].as_ref().expect_err("fails");
        assert!(matches!(e.failure, TaskFailure::Failed(_)));
    }

    #[test]
    fn journaled_tasks_are_salvaged_not_rerun() {
        let path = tmp("salvage");
        let calls = AtomicUsize::new(0);
        {
            let journal = Journal::create(&path).expect("create");
            let ctx = RunContext::new().with_journal(journal);
            let fan = local_fan(&ctx, 2, "v", 8, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i as f64 + 0.5
            })
            .expect("fan");
            assert_eq!(fan.items.len(), 8);
            assert_eq!(calls.load(Ordering::Relaxed), 8);
        }
        // Resume: all eight tasks replay from disk; f never runs.
        let journal = Journal::open(&path).expect("open");
        assert_eq!(journal.loaded(), 8);
        let ctx = RunContext::new().with_journal(journal);
        let fan = local_fan(&ctx, 2, "v", 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i as f64 + 0.5
        })
        .expect("fan");
        assert_eq!(calls.load(Ordering::Relaxed), 8, "no task re-ran");
        for (i, r) in fan.items.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("ok"), i as f64 + 0.5);
        }
        let s = ctx.stats();
        assert_eq!((s.executed, s.salvaged), (0, 8));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_tasks_are_not_journaled() {
        let path = tmp("failed-not-journaled");
        let journal = Journal::create(&path).expect("create");
        let ctx = RunContext::new()
            .with_journal(journal)
            .with_faults(FaultPlan::targets(["w#0/1"], u32::MAX, FaultKind::Panic))
            .with_retries(0);
        let fan = local_fan(&ctx, 1, "w", 3, |i| i as u64).expect("fan");
        assert!(fan.items[1].is_err());
        let journal = Journal::open(&path).expect("open");
        assert_eq!(journal.loaded(), 2, "only the two successes persist");
        assert!(journal.get("w#0/1").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancellation_skips_pending_tasks_and_resumes() {
        let path = tmp("cancel");
        let cancel = Arc::new(AtomicBool::new(false));
        let calls = AtomicUsize::new(0);
        {
            let ctx = RunContext::new()
                .with_journal(Journal::create(&path).expect("create"))
                .with_cancel(cancel.clone());
            let err = local_fan(&ctx, 1, "c", 6, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i == 2 {
                    cancel.store(true, Ordering::Relaxed);
                }
                i as u64
            })
            .expect_err("cancelled mid-fan");
            assert!(matches!(err, ExploreError::Cancelled));
            // One worker runs items in order: 0, 1, 2 complete, the
            // flag flips during 2, and 3..6 are skipped.
            assert_eq!(calls.load(Ordering::Relaxed), 3);
            // Skips are not failures.
            assert!(ctx.stats().failed_tasks.is_empty());
        }
        // Resume without the flag: only the skipped tasks execute.
        let ctx = RunContext::new().with_journal(Journal::open(&path).expect("open"));
        let fan = local_fan(&ctx, 1, "c", 6, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i as u64
        })
        .expect("resumed fan");
        for (i, r) in fan.items.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("ok"), i as u64);
        }
        let s = ctx.stats();
        assert_eq!((s.salvaged, s.executed), (3, 3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn already_cancelled_context_refuses_new_fans() {
        let cancel = Arc::new(AtomicBool::new(true));
        let ctx = RunContext::new().with_cancel(cancel);
        let err = local_fan(&ctx, 2, "c", 4, |i| i as u64).expect_err("refused up front");
        assert!(matches!(err, ExploreError::Cancelled));
        assert_eq!(ctx.stats().executed, 0);
    }

    #[test]
    fn observer_reports_executed_and_salvaged_tasks() {
        let seen: Arc<Mutex<Vec<(String, bool)>>> = Arc::default();
        let sink = {
            let seen = seen.clone();
            ProgressSink::new(move |e| {
                if let ProgressEvent::TaskDone { key, salvaged } = e {
                    seen.lock().unwrap().push((key.clone(), *salvaged));
                }
            })
        };
        let path = tmp("observer");
        {
            let ctx = RunContext::new()
                .with_journal(Journal::create(&path).expect("create"))
                .with_observer(sink.clone());
            local_fan(&ctx, 1, "o", 2, |i| i as u64).expect("fan");
        }
        let ctx = RunContext::new()
            .with_journal(Journal::open(&path).expect("open"))
            .with_observer(sink);
        local_fan(&ctx, 1, "o", 2, |i| i as u64).expect("fan");
        let events = seen.lock().unwrap().clone();
        assert_eq!(events.len(), 4);
        assert!(events[..2].iter().all(|(_, salvaged)| !*salvaged));
        assert!(events[2..].iter().all(|(_, salvaged)| *salvaged));
        let _ = std::fs::remove_file(&path);
    }

    /// A dispatcher that executes specs in-process — the degenerate
    /// "remote" worker, sharing nothing with the local closure except
    /// the deterministic engine.
    #[derive(Debug, Default)]
    struct InProcessDispatcher {
        cache: crate::cache::EvalCache,
        served: AtomicU64,
        garble: bool,
        decline: bool,
    }

    impl crate::task::TaskDispatcher for InProcessDispatcher {
        fn dispatch(&self, _key: &str, spec: &crate::task::TaskSpec) -> Option<String> {
            if self.decline {
                return None;
            }
            self.served.fetch_add(1, Ordering::Relaxed);
            if self.garble {
                return Some("{\"not\":\"a result\"}".to_string());
            }
            spec.execute(&self.cache).ok()
        }
    }

    fn eval_spec(ops: u64) -> crate::task::TaskSpec {
        let profile = xps_workload::spec::profile("gzip").expect("gzip exists");
        crate::task::TaskSpec::eval(&profile, &xps_sim::CoreConfig::initial(), ops)
    }

    #[test]
    fn dispatched_fan_is_byte_identical_to_local_fan() {
        let profile = xps_workload::spec::profile("gzip").expect("gzip exists");
        let config = xps_sim::CoreConfig::initial();
        let run = |dispatcher: Option<Arc<dyn crate::task::TaskDispatcher>>| {
            let cache = crate::cache::EvalCache::new();
            let mut ctx = RunContext::new();
            if let Some(d) = dispatcher {
                ctx = ctx.with_dispatcher(d);
            }
            let fan = ctx
                .run_fan(
                    2,
                    "cell",
                    4,
                    |i| Some(eval_spec(1_000 + 500 * i as u64)),
                    |i| cache.ipt(&profile, &config, 1_000 + 500 * i as u64),
                )
                .expect("fan");
            let values: Vec<f64> = fan.items.into_iter().map(|r| r.expect("ok")).collect();
            (values, ctx.remote_dispatched(), ctx.stats().executed)
        };
        let dispatcher = Arc::new(InProcessDispatcher::default());
        let (local, r0, e0) = run(None);
        let (remote, r1, e1) = run(Some(dispatcher.clone()));
        assert_eq!((r0, e0), (0, 4));
        assert_eq!((r1, e1), (4, 0), "every item went remote");
        assert_eq!(dispatcher.served.load(Ordering::Relaxed), 4);
        // Bit-identical, not approximately equal: the serialized round
        // trip must not perturb a single ULP.
        assert!(local.iter().zip(&remote).all(|(a, b)| a == b));
    }

    #[test]
    fn declined_and_garbled_dispatches_fall_back_to_local() {
        for (garble, decline) in [(false, true), (true, false)] {
            let cache = crate::cache::EvalCache::new();
            let dispatcher = Arc::new(InProcessDispatcher {
                garble,
                decline,
                ..InProcessDispatcher::default()
            });
            let ctx = RunContext::new().with_dispatcher(dispatcher);
            let profile = xps_workload::spec::profile("gzip").expect("gzip exists");
            let config = xps_sim::CoreConfig::initial();
            let fan = ctx
                .run_fan(
                    1,
                    "cell",
                    3,
                    |_| Some(eval_spec(2_000)),
                    |_| cache.ipt(&profile, &config, 2_000),
                )
                .expect("fan");
            assert!(fan.items.iter().all(|r| r.is_ok()));
            assert_eq!(ctx.remote_dispatched(), 0, "nothing counted as remote");
            assert_eq!(ctx.stats().executed, 3, "all items ran locally");
        }
    }

    #[test]
    fn undescribed_items_never_reach_the_dispatcher() {
        let dispatcher = Arc::new(InProcessDispatcher::default());
        let ctx = RunContext::new().with_dispatcher(dispatcher.clone());
        let fan = ctx
            .run_fan(2, "plain", 5, |_| None, |i| i as u64)
            .expect("fan");
        assert_eq!(fan.items.len(), 5);
        assert_eq!(dispatcher.served.load(Ordering::Relaxed), 0);
        assert_eq!(ctx.stats().executed, 5);
    }

    #[test]
    fn fan_sequence_distinguishes_same_label() {
        let ctx = RunContext::new();
        let a = ctx
            .run_task("x", eval_spec(1), || Ok(1u64))
            .expect("fan")
            .expect("ok");
        let b = ctx
            .run_task("x", eval_spec(1), || Ok(2u64))
            .expect("fan")
            .expect("ok");
        assert_eq!((a, b), (1, 2));
        // With a journal the two calls must land on distinct keys.
        let path = tmp("fan-seq");
        let ctx = RunContext::new().with_journal(Journal::create(&path).expect("create"));
        ctx.run_task("x", eval_spec(1), || Ok(1u64))
            .expect("fan")
            .expect("ok");
        ctx.run_task("x", eval_spec(1), || Ok(2u64))
            .expect("fan")
            .expect("ok");
        assert_eq!(ctx.journal().expect("journal").len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
