//! Request parsing, canonicalization, and job execution.
//!
//! A job request names a *question* (explore, evaluate, best
//! combination, slowdown row) over a *campaign* (a workload set and a
//! profile of exploration effort). The engine canonicalizes the
//! request — workloads sorted and deduplicated, defaults filled — so
//! equivalent requests share one fingerprint, runs the campaign at
//! most once (content-addressed in the store, memoized in the shared
//! evaluation cache, checkpointed in a per-campaign journal), and then
//! derives the job's answer from the stored campaign document.
//!
//! Determinism is the load-bearing property: the pipeline is
//! bit-identical for any worker count and across journal resumes, the
//! campaign document contains only simulation results (never run
//! counters), and job bodies are derived from the stored document —
//! so a repeated, restarted, or crash-resumed job always produces the
//! same bytes.

use crate::error::ServeError;
use crate::progress::ProgressHub;
use crate::store::{content_id, ResultStore};
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, PoisonError};
use xps_core::communal::{combination_query, slowdown_row, CrossPerfMatrix};
use xps_core::explore::{
    EngineStats, EvalCache, ExploreError, Journal, ProgressEvent, ProgressSink, RunContext,
};
use xps_core::trace::{with_recorder, Profile as TraceProfile, TraceSink};
use xps_core::workload::spec;
use xps_core::{Pipeline, PipelineError};

/// How much exploration effort a campaign spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// A few iterations per walk: seconds, for smoke tests and demos.
    Smoke,
    /// [`Pipeline::quick`]: tens of seconds for a few workloads.
    Quick,
    /// [`Pipeline::default`]: the full measured reproduction.
    Full,
}

impl Profile {
    fn name(&self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Quick => "quick",
            Profile::Full => "full",
        }
    }

    pub(crate) fn parse(name: &str) -> Result<Profile, ServeError> {
        match name {
            "smoke" => Ok(Profile::Smoke),
            "quick" => Ok(Profile::Quick),
            "full" | "default" => Ok(Profile::Full),
            other => Err(ServeError::BadRequest(format!(
                "unknown profile `{other}`; known: smoke, quick, full"
            ))),
        }
    }

    pub(crate) fn pipeline(&self, jobs: usize) -> Pipeline {
        let mut p = match self {
            Profile::Smoke => {
                let mut p = Pipeline::quick();
                p.explore.anneal.iterations = 8;
                p.explore.anneal.eval_ops_early = 3_000;
                p.explore.anneal.eval_ops_late = 6_000;
                p.explore.reanneal_iterations = 3;
                p.matrix_ops = 8_000;
                p
            }
            Profile::Quick => Pipeline::quick(),
            Profile::Full => Pipeline::default(),
        };
        p.explore.jobs = jobs;
        p
    }
}

/// The question a job asks of its campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum Question {
    /// The customized configuration of every workload in the set.
    Explore,
    /// One workload's performance on another's customized
    /// architecture.
    Evaluate {
        /// The workload being measured.
        workload: String,
        /// The workload whose architecture it runs on.
        on: String,
    },
    /// The best k-core combination under a named merit.
    Combination {
        /// Number of cores.
        cores: usize,
        /// Merit name (see `xps_communal::merit_by_name`).
        merit: String,
    },
    /// One workload's row of the percentage-slowdown matrix.
    Slowdown {
        /// The workload whose row is requested.
        workload: String,
    },
}

/// A parsed, canonicalized job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The question asked.
    pub question: Question,
    /// The campaign's workload set, sorted and deduplicated.
    pub workloads: Vec<String>,
    /// Exploration effort.
    pub profile: Profile,
}

fn known_workload(name: &str) -> Result<String, ServeError> {
    if spec::profile(name).is_some() {
        Ok(name.to_string())
    } else {
        Err(ServeError::BadRequest(format!(
            "unknown workload `{name}`; known: {}",
            spec::BENCHMARKS.join(", ")
        )))
    }
}

fn str_member(v: &Value, key: &str) -> Result<String, ServeError> {
    v.member(key)
        .and_then(|m| m.as_str().map(String::from))
        .map_err(ServeError::BadRequest)
}

impl JobRequest {
    /// Parse and canonicalize a request body.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] naming the first problem: bad JSON,
    /// missing or unknown `kind`, unknown workload or profile names,
    /// or a malformed field.
    pub fn parse(body: &str) -> Result<JobRequest, ServeError> {
        let v: Value = serde_json::from_str(body)
            .map_err(|e| ServeError::BadRequest(format!("request is not JSON: {e}")))?;
        let kind = str_member(&v, "kind")?;
        let profile = match v.member("profile") {
            Ok(p) => Profile::parse(p.as_str().map_err(ServeError::BadRequest)?)?,
            Err(_) => Profile::Quick,
        };
        let mut workloads: Vec<String> = match v.member("workloads") {
            Err(_) => Vec::new(),
            Ok(Value::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map_err(ServeError::BadRequest)
                        .and_then(known_workload)
                })
                .collect::<Result<_, _>>()?,
            Ok(other) => {
                return Err(ServeError::BadRequest(format!(
                    "`workloads` must be an array of names, got {other:?}"
                )))
            }
        };
        let question = match kind.as_str() {
            "explore" => Question::Explore,
            "evaluate" => {
                let workload = known_workload(&str_member(&v, "workload")?)?;
                let on = known_workload(&str_member(&v, "on")?)?;
                // The two named workloads are implicitly part of the
                // campaign even if the caller omitted `workloads`.
                workloads.push(workload.clone());
                workloads.push(on.clone());
                Question::Evaluate { workload, on }
            }
            "combination" => {
                let cores = match v.member("cores").map_err(ServeError::BadRequest)? {
                    Value::U64(n) => *n as usize,
                    other => {
                        return Err(ServeError::BadRequest(format!(
                            "`cores` must be a positive integer, got {other:?}"
                        )))
                    }
                };
                let merit = match v.member("merit") {
                    Ok(m) => m.as_str().map_err(ServeError::BadRequest)?.to_string(),
                    Err(_) => "har".to_string(),
                };
                xps_core::communal::merit_by_name(&merit)
                    .map_err(|e| ServeError::BadRequest(e.to_string()))?;
                Question::Combination { cores, merit }
            }
            "slowdown" => Question::Slowdown {
                workload: known_workload(&str_member(&v, "workload")?)?,
            },
            other => {
                return Err(ServeError::BadRequest(format!(
                    "unknown kind `{other}`; known: explore, evaluate, combination, slowdown"
                )))
            }
        };
        workloads.sort();
        workloads.dedup();
        if workloads.is_empty() {
            return Err(ServeError::BadRequest(
                "`workloads` must name at least one workload".into(),
            ));
        }
        if let Question::Combination { cores, .. } = &question {
            if *cores == 0 || *cores > workloads.len() {
                return Err(ServeError::BadRequest(format!(
                    "`cores` must be in 1..={}, got {cores}",
                    workloads.len()
                )));
            }
        }
        Ok(JobRequest {
            question,
            workloads,
            profile,
        })
    }

    /// The canonical JSON of this request: fixed key order, sorted
    /// workload set, defaults made explicit. Equal requests — however
    /// they were spelled — canonicalize to equal bytes, hence equal
    /// content ids.
    pub fn canonical(&self) -> String {
        let mut fields = vec![(
            "kind".to_string(),
            Value::Str(
                match self.question {
                    Question::Explore => "explore",
                    Question::Evaluate { .. } => "evaluate",
                    Question::Combination { .. } => "combination",
                    Question::Slowdown { .. } => "slowdown",
                }
                .to_string(),
            ),
        )];
        match &self.question {
            Question::Explore => {}
            Question::Evaluate { workload, on } => {
                fields.push(("workload".to_string(), Value::Str(workload.clone())));
                fields.push(("on".to_string(), Value::Str(on.clone())));
            }
            Question::Combination { cores, merit } => {
                fields.push(("cores".to_string(), Value::U64(*cores as u64)));
                fields.push(("merit".to_string(), Value::Str(merit.clone())));
            }
            Question::Slowdown { workload } => {
                fields.push(("workload".to_string(), Value::Str(workload.clone())));
            }
        }
        fields.push((
            "profile".to_string(),
            Value::Str(self.profile.name().to_string()),
        ));
        fields.push((
            "workloads".to_string(),
            Value::Arr(self.workloads.iter().cloned().map(Value::Str).collect()),
        ));
        crate::json(&Value::Obj(fields))
    }

    /// The canonical JSON of the underlying campaign (workload set +
    /// profile, no question) — different questions over the same
    /// campaign share this fingerprint, and therefore the expensive
    /// exploration.
    pub fn campaign_canonical(&self) -> String {
        crate::json(&Value::Obj(vec![
            (
                "profile".to_string(),
                Value::Str(self.profile.name().to_string()),
            ),
            (
                "workloads".to_string(),
                Value::Arr(self.workloads.iter().cloned().map(Value::Str).collect()),
            ),
        ]))
    }
}

/// The job execution engine: shared evaluation cache, result store,
/// per-campaign journals, and the progress hub feeds.
#[derive(Debug)]
pub struct Engine {
    data_dir: PathBuf,
    store: Arc<ResultStore>,
    cache: Arc<EvalCache>,
    hub: Arc<ProgressHub>,
    cancel: Arc<AtomicBool>,
    /// Worker threads per pipeline run (0 = available parallelism).
    pipeline_jobs: usize,
    /// One lock per in-flight campaign. Concurrent jobs asking
    /// different questions over the same campaign do not coalesce in
    /// the queue (different job ids), so without this two scheduler
    /// workers would open two `Journal` writers on the same
    /// `journal-<campaign_id>.jsonl` and race each other's atomic
    /// rewrites through the shared temp path — corrupting the journal
    /// and splitting checkpoints across two in-memory maps. The second
    /// worker instead waits here, then finds the first run's document
    /// in the store.
    campaigns: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

impl Engine {
    /// Build an engine rooted at `data_dir`.
    pub fn new(
        data_dir: PathBuf,
        store: Arc<ResultStore>,
        hub: Arc<ProgressHub>,
        cancel: Arc<AtomicBool>,
        pipeline_jobs: usize,
    ) -> Engine {
        Engine {
            data_dir,
            store,
            cache: Arc::new(EvalCache::new()),
            hub,
            cancel,
            pipeline_jobs,
            campaigns: Mutex::new(HashMap::new()),
        }
    }

    /// The shared evaluation cache (for metrics).
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Execute one job: run (or fetch) its campaign, derive its
    /// answer, store it, and return the body. Emits progress into the
    /// job's hub feed throughout.
    ///
    /// # Errors
    ///
    /// [`ServeError`] for bad canonical requests (should not happen —
    /// they were validated at submission), pipeline failures, store
    /// I/O, and cancellation (see [`is_cancelled`]).
    pub fn run_job(
        &self,
        job_id: &str,
        canonical: &str,
    ) -> Result<(String, EngineStats, Option<TraceProfile>), ServeError> {
        let request = JobRequest::parse(canonical)?;
        let campaign_key = request.campaign_canonical();
        let campaign_id = content_id(&campaign_key);
        let lock = self.campaign_lock(&campaign_id);
        let outcome = {
            // Serialize the check-then-run on this campaign: only one
            // journal writer per campaign file can exist, and a waiter
            // is answered from the store once the holder has run. A
            // poisoned lock just means an earlier holder panicked
            // (panic-isolated in the scheduler); the journal and store
            // are crash-safe by construction, so proceeding is sound.
            let _serialized = lock.lock().unwrap_or_else(PoisonError::into_inner);
            match self.store.get(&campaign_id) {
                Err(e) => Err(e),
                Ok(Some(body)) => {
                    self.hub.publish(
                        job_id,
                        format!(
                            "{{\"event\":\"campaign\",\"id\":\"{campaign_id}\",\"source\":\"store\"}}"
                        ),
                    );
                    Ok((body, EngineStats::default(), None))
                }
                Ok(None) => self
                    .run_campaign(job_id, &request, &campaign_id)
                    .map(|(body, stats, profile)| (body, stats, Some(profile))),
            }
        };
        self.release_campaign_lock(&campaign_id, lock);
        let (campaign_body, stats, profile) = outcome?;
        let body = derive_answer(&request, &campaign_body)?;
        self.store.put(job_id, &body)?;
        Ok((body, stats, profile))
    }

    /// The serialization lock for one campaign, created on first use.
    fn campaign_lock(&self, campaign_id: &str) -> Arc<Mutex<()>> {
        self.campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(campaign_id.to_string())
            .or_default()
            .clone()
    }

    /// Drop this holder's handle and, when no other job waits on the
    /// campaign, remove its lock entry so the map tracks only
    /// in-flight campaigns.
    fn release_campaign_lock(&self, campaign_id: &str, lock: Arc<Mutex<()>>) {
        let mut map = self
            .campaigns
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        drop(lock);
        if map
            .get(campaign_id)
            .is_some_and(|l| Arc::strong_count(l) == 1)
        {
            map.remove(campaign_id);
        }
    }

    /// Run the campaign pipeline, journal-checkpointed and
    /// cancellable, and store its document.
    fn run_campaign(
        &self,
        job_id: &str,
        request: &JobRequest,
        campaign_id: &str,
    ) -> Result<(String, EngineStats, TraceProfile), ServeError> {
        let profiles: Vec<_> = request
            .workloads
            .iter()
            // xps-allow(no-unwrap-in-lib): JobRequest::parse rejects unknown workload names before an engine ever sees them
            .map(|n| spec::profile(n).expect("workloads validated at parse"))
            .collect();
        let journal_path = self.data_dir.join(format!("journal-{campaign_id}.jsonl"));
        // `open` resumes an interrupted campaign's checkpoints (and
        // starts empty when there are none).
        let journal = Journal::open(&journal_path)
            .map_err(|e| ServeError::Pipeline(PipelineError::from(e)))?;
        let replayed = journal.loaded();
        self.hub.publish(
            job_id,
            format!(
                "{{\"event\":\"campaign\",\"id\":\"{campaign_id}\",\"source\":\"run\",\"journal_replayed\":{replayed}}}"
            ),
        );
        let sink = self.progress_sink(job_id);
        // The daemon is the wall-clock edge: per-task span journals
        // stay deterministic, the job profile additionally carries
        // wall time for `/metrics` and the event feed.
        let trace = TraceSink::with_wall_clock();
        // `from_env` honors `XPS_FAULTS`, so fault-injected CI runs
        // exercise the daemon's retry/requeue paths like the batch
        // pipeline's.
        let mut ctx = RunContext::from_env()
            .map_err(|e| ServeError::Pipeline(PipelineError::from(e)))?
            .with_journal(journal)
            .with_cancel(self.cancel.clone())
            .with_observer(sink)
            .with_trace(trace.clone());
        let pipeline = request.profile.pipeline(self.pipeline_jobs);
        let (root, result) = with_recorder(trace.recorder(), || {
            pipeline.run(&profiles, &self.cache, &ctx)
        });
        trace.attach("main", root);
        let result = result?;
        let stats = EngineStats::snapshot(&self.cache, &ctx);
        let body = campaign_document(&request.workloads, &result);
        self.store.put(campaign_id, &body)?;
        // The store now owns the result; the checkpoint journal has
        // served its purpose.
        if let Some(journal) = ctx.take_journal() {
            let _ = journal.discard();
        }
        let profile = trace.profile();
        for line in span_summary_lines(&profile) {
            self.hub.publish(job_id, line);
        }
        Ok((body, stats, profile))
    }

    /// The NDJSON progress sink for one job's feed: anneal steps and
    /// task completions, each stamped with the current cache hit rate.
    fn progress_sink(&self, job_id: &str) -> ProgressSink {
        let hub = self.hub.clone();
        let cache = self.cache.clone();
        let job = job_id.to_string();
        ProgressSink::new(move |event| {
            let hit_rate = cache.counters().hit_rate();
            let line = match event {
                ProgressEvent::AnnealStep {
                    workload,
                    start,
                    iteration,
                    iterations,
                    temperature,
                    best,
                } => crate::json(&Value::Obj(vec![
                    ("event".to_string(), Value::Str("anneal".to_string())),
                    ("workload".to_string(), Value::Str(workload.clone())),
                    ("start".to_string(), Value::U64(u64::from(*start))),
                    ("iteration".to_string(), Value::U64(u64::from(*iteration))),
                    ("iterations".to_string(), Value::U64(u64::from(*iterations))),
                    ("temperature".to_string(), Value::F64(*temperature)),
                    ("best_ipt".to_string(), Value::F64(*best)),
                    ("cache_hit_rate".to_string(), Value::F64(hit_rate)),
                ])),
                ProgressEvent::TaskDone { key, salvaged } => crate::json(&Value::Obj(vec![
                    ("event".to_string(), Value::Str("task".to_string())),
                    ("key".to_string(), Value::Str(key.clone())),
                    ("salvaged".to_string(), Value::Bool(*salvaged)),
                    ("cache_hit_rate".to_string(), Value::F64(hit_rate)),
                ])),
            };
            hub.publish(&job, line);
        })
    }
}

/// Assemble the canonical campaign document from a pipeline result.
/// The single serialization point for campaign bodies — the daemon's
/// `run_campaign` and the fleet coordinator both emit through here, so
/// a fleet-gathered campaign is byte-identical to a single-node run by
/// construction. The document holds only deterministic simulation
/// results — never run counters, which differ across resumes and
/// topologies.
pub fn campaign_document(workloads: &[String], result: &xps_core::PipelineResult) -> String {
    crate::json(&Value::Obj(vec![
        (
            "workloads".to_string(),
            Value::Arr(workloads.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "cores".to_string(),
            Value::Arr(result.cores.iter().map(|c| c.to_value()).collect()),
        ),
        ("matrix".to_string(), result.matrix.to_value()),
    ]))
}

/// One NDJSON feed line per profiled phase, name-ordered: the job's
/// span summary, streamed to watchers right before the terminal line.
fn span_summary_lines(profile: &TraceProfile) -> Vec<String> {
    profile
        .rows()
        .map(|(name, r)| {
            crate::json(&Value::Obj(vec![
                ("event".to_string(), Value::Str("span".to_string())),
                ("name".to_string(), Value::Str(name.to_string())),
                ("count".to_string(), Value::U64(r.count)),
                ("ops".to_string(), Value::U64(r.ops)),
                ("ticks".to_string(), Value::U64(r.ticks)),
                ("wall_us".to_string(), Value::U64(r.wall_ns / 1_000)),
            ]))
        })
        .collect()
}

/// Whether an error is the graceful-shutdown cancellation (the job
/// should be re-queued, not failed).
pub fn is_cancelled(e: &ServeError) -> bool {
    matches!(
        e,
        ServeError::Pipeline(PipelineError::Explore(ExploreError::Cancelled))
    )
}

/// Derive a job's answer document from its campaign document.
fn derive_answer(request: &JobRequest, campaign_body: &str) -> Result<String, ServeError> {
    let campaign: Value =
        serde_json::from_str(campaign_body).map_err(|e| ServeError::StoreCorrupt {
            path: PathBuf::from("<campaign document>"),
            detail: format!("does not parse: {e}"),
        })?;
    let bad = |detail: String| ServeError::StoreCorrupt {
        path: PathBuf::from("<campaign document>"),
        detail,
    };
    let matrix = || -> Result<CrossPerfMatrix, ServeError> {
        CrossPerfMatrix::from_value(campaign.member("matrix").map_err(&bad)?).map_err(&bad)
    };
    let mut fields = vec![(
        "kind".to_string(),
        Value::Str(
            match request.question {
                Question::Explore => "explore",
                Question::Evaluate { .. } => "evaluate",
                Question::Combination { .. } => "combination",
                Question::Slowdown { .. } => "slowdown",
            }
            .to_string(),
        ),
    )];
    fields.push((
        "workloads".to_string(),
        Value::Arr(request.workloads.iter().cloned().map(Value::Str).collect()),
    ));
    match &request.question {
        Question::Explore => {
            fields.push((
                "cores".to_string(),
                campaign.member("cores").map_err(&bad)?.clone(),
            ));
        }
        Question::Evaluate { workload, on } => {
            let m = matrix()?;
            let w = m
                .index_of(workload)
                .ok_or_else(|| bad(format!("workload `{workload}` missing from matrix")))?;
            let c = m
                .index_of(on)
                .ok_or_else(|| bad(format!("workload `{on}` missing from matrix")))?;
            fields.push(("workload".to_string(), Value::Str(workload.clone())));
            fields.push(("on".to_string(), Value::Str(on.clone())));
            fields.push(("ipt".to_string(), Value::F64(m.ipt(w, c))));
            fields.push(("own_ipt".to_string(), Value::F64(m.ipt(w, w))));
            fields.push((
                "slowdown_pct".to_string(),
                Value::F64(100.0 * m.slowdown(w, c)),
            ));
        }
        Question::Combination { cores, merit } => {
            let m = matrix()?;
            let combo = combination_query(&m, *cores, merit)
                .map_err(|e| ServeError::BadRequest(e.to_string()))?;
            fields.push(("merit".to_string(), Value::Str(merit.clone())));
            fields.push(("combination".to_string(), combo.to_value()));
        }
        Question::Slowdown { workload } => {
            let m = matrix()?;
            let row =
                slowdown_row(&m, workload).map_err(|e| ServeError::BadRequest(e.to_string()))?;
            fields.push(("row".to_string(), row.to_value()));
        }
    }
    Ok(crate::json(&Value::Obj(fields)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalization_sorts_dedups_and_defaults() {
        let a = JobRequest::parse(r#"{"kind":"explore","workloads":["mcf","gzip","mcf"]}"#)
            .expect("parses");
        let b =
            JobRequest::parse(r#"{"kind":"explore","profile":"quick","workloads":["gzip","mcf"]}"#)
                .expect("parses");
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical(),
            r#"{"kind":"explore","profile":"quick","workloads":["gzip","mcf"]}"#
        );
        assert_eq!(
            a.campaign_canonical(),
            r#"{"profile":"quick","workloads":["gzip","mcf"]}"#
        );
    }

    #[test]
    fn evaluate_pulls_named_workloads_into_the_campaign() {
        let r = JobRequest::parse(r#"{"kind":"evaluate","workload":"mcf","on":"gzip"}"#)
            .expect("parses");
        assert_eq!(r.workloads, vec!["gzip".to_string(), "mcf".to_string()]);
        // The same campaign as an explore over those two workloads.
        let e =
            JobRequest::parse(r#"{"kind":"explore","workloads":["mcf","gzip"]}"#).expect("parses");
        assert_eq!(r.campaign_canonical(), e.campaign_canonical());
        assert_ne!(r.canonical(), e.canonical());
    }

    #[test]
    fn bad_requests_are_named() {
        let cases = [
            ("not json at all", "not JSON"),
            (r#"{"workloads":["gzip"]}"#, "kind"),
            (r#"{"kind":"dance","workloads":["gzip"]}"#, "unknown kind"),
            (
                r#"{"kind":"explore","workloads":["quake3"]}"#,
                "unknown workload",
            ),
            (r#"{"kind":"explore","workloads":[]}"#, "at least one"),
            (
                r#"{"kind":"explore","workloads":["gzip"],"profile":"epic"}"#,
                "unknown profile",
            ),
            (
                r#"{"kind":"combination","workloads":["gzip","mcf"],"cores":3}"#,
                "1..=2",
            ),
            (
                r#"{"kind":"combination","workloads":["gzip","mcf"],"cores":1,"merit":"x"}"#,
                "unknown merit",
            ),
        ];
        for (body, needle) in cases {
            let e = JobRequest::parse(body).expect_err(body);
            assert_eq!(e.status(), 400, "{body}");
            assert!(e.to_string().contains(needle), "{body}: {e}");
        }
    }

    #[test]
    fn derive_answers_from_a_synthetic_campaign() {
        let campaign = crate::json(&Value::Obj(vec![
            (
                "workloads".to_string(),
                Value::Arr(vec![Value::Str("gzip".into()), Value::Str("mcf".into())]),
            ),
            (
                "cores".to_string(),
                Value::Arr(vec![Value::Str("placeholder".into())]),
            ),
            (
                "matrix".to_string(),
                CrossPerfMatrix::new(
                    vec!["gzip".into(), "mcf".into()],
                    vec![vec![2.0, 1.0], vec![0.5, 1.5]],
                )
                .expect("valid")
                .to_value(),
            ),
        ]));
        let eval = JobRequest::parse(r#"{"kind":"evaluate","workload":"gzip","on":"mcf"}"#)
            .expect("parses");
        let body = derive_answer(&eval, &campaign).expect("derives");
        let v: Value = serde_json::from_str(&body).expect("valid");
        assert_eq!(v.member("ipt").unwrap(), &Value::F64(1.0));
        assert_eq!(v.member("slowdown_pct").unwrap(), &Value::F64(50.0));
        let combo = JobRequest::parse(
            r#"{"kind":"combination","workloads":["gzip","mcf"],"cores":1,"merit":"avg"}"#,
        )
        .expect("parses");
        let body = derive_answer(&combo, &campaign).expect("derives");
        let v: Value = serde_json::from_str(&body).expect("valid");
        assert!(v.member("combination").is_ok());
        let slow =
            JobRequest::parse(r#"{"kind":"slowdown","workloads":["gzip","mcf"],"workload":"mcf"}"#)
                .expect("parses");
        let body = derive_answer(&slow, &campaign).expect("derives");
        assert!(body.contains("\"row\""));
        // Derivation is deterministic: same campaign, same bytes.
        assert_eq!(body, derive_answer(&slow, &campaign).expect("derives"));
    }
}
