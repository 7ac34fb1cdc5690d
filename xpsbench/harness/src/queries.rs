//! The in-process request phase of the `campaign` workload: the three
//! request kinds the daemon serves (a re-asked evaluation, a fresh
//! evaluation, a question), answered by the library on the campaign's
//! own results, so every workload reports the same latency metrics. Evaluation requests are JSON `TaskSpec`
//! bodies, parsed and executed as the daemon's `/tasks` handler does.

use crate::measure::{central_mean, latency_summary, secs, Metrics};
use crate::Tally;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;
use xps_core::cacti::Technology;
use xps_core::explore::{mutate, DesignPoint, EvalCache, TaskSpec};
use xps_core::workload::WorkloadProfile;

/// Seconds of requests answered after each unit of a workload's work,
/// per second the unit took: the request phase then spans the run in
/// proportion, and each kind's samples span many of the host's speed
/// swings.
pub const REQUEST_SHARE: f64 = 0.3;

/// The mix, by count: of every `MIX` requests, `MIX - 2` are reads on
/// average, one is a write and one a question.
const MIX: u32 = 102;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Read,
    Write,
    Job,
}

/// A seeded stream of reads, fresh writes and questions, answered for
/// a given time at each step, so a run spreads its samples over its
/// whole measuring time whatever the host's speed.
pub struct Requests {
    rng: SmallRng,
    /// Request bodies already answered, with the response each must
    /// read back as.
    known: Vec<(String, String)>,
    writes: FreshWrites,
    next_read: usize,
    next_job: usize,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    job_ms: Vec<f64>,
    busy_s: f64,
}

/// Answer one evaluation request body as the daemon's `/tasks` handler
/// does, without HTTP and the store: parse the spec, execute it.
fn handle(body: &str, cache: &EvalCache) -> Result<String, String> {
    let spec: TaskSpec = serde_json::from_str(body).map_err(|e| e.to_string())?;
    spec.execute(cache)
}

impl Requests {
    /// * `known` — evaluation specs already answered, with the
    ///   response each must read back as (at least one);
    /// * `writes` — fresh evaluation specs, each simulated once.
    pub fn new(seed: u64, known: Vec<(TaskSpec, String)>, writes: FreshWrites) -> Requests {
        Requests {
            rng: SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15),
            known: known
                .iter()
                .map(|(s, r)| (s.canonical(), r.clone()))
                .collect(),
            writes,
            next_read: 0,
            next_job: 0,
            read_ms: Vec::new(),
            write_ms: Vec::new(),
            job_ms: Vec::new(),
            busy_s: 0.0,
        }
    }

    /// Answer requests for `seconds` (at least one request). `job(i)`
    /// answers question `i`, returning a failure description.
    pub fn step(
        &mut self,
        seconds: f64,
        cache: &EvalCache,
        mut job: impl FnMut(usize) -> Result<(), String>,
        tally: &mut Tally,
    ) {
        let phase = Instant::now();
        loop {
            let kind = match self.rng.gen_range(0..MIX) {
                0 => Kind::Write,
                1 => Kind::Job,
                _ => Kind::Read,
            };
            match kind {
                Kind::Read => {
                    let (body, want) = &self.known[self.next_read % self.known.len()];
                    self.next_read += 1;
                    let t = Instant::now();
                    let got = handle(body, cache);
                    self.read_ms.push(secs(t) * 1e3);
                    tally.check(got.as_ref() == Ok(want), || {
                        format!("read returned {got:?}, wrote {want}")
                    });
                }
                Kind::Write => {
                    let body = self.writes.next_spec().canonical();
                    let misses = cache.counters().misses;
                    let t = Instant::now();
                    let got = handle(&body, cache);
                    self.write_ms.push(secs(t) * 1e3);
                    let simulated = cache.counters().misses == misses + 1;
                    tally.attempted += 1;
                    match got {
                        Ok(response) if simulated => self.known.push((body, response)),
                        other => {
                            tally.fail(format!("write (simulated: {simulated}) returned {other:?}"))
                        }
                    }
                }
                Kind::Job => {
                    let t = Instant::now();
                    let got = job(self.next_job);
                    self.job_ms.push(secs(t) * 1e3);
                    self.next_job += 1;
                    tally.check(got.is_ok(), || {
                        format!("question {}: {got:?}", self.next_job)
                    });
                }
            }
            if secs(phase) >= seconds {
                break;
            }
        }
        self.busy_s += secs(phase);
    }

    /// Record `req_per_s` (over the time spent answering) and each
    /// kind's central mean latency; print each kind's percentiles.
    pub fn record(&self, m: &mut Metrics) {
        let n = (self.read_ms.len() + self.write_ms.len() + self.job_ms.len()) as f64;
        m.set("req_per_s", n / self.busy_s, "req/s");
        for (name, ms) in [
            ("read", &self.read_ms),
            ("write", &self.write_ms),
            ("job", &self.job_ms),
        ] {
            // A short run may draw no request of a kind; every metric
            // must still be measured, so that is a failed run.
            if ms.is_empty() {
                continue;
            }
            m.set(&format!("{name}_ms"), central_mean(ms), "ms");
            println!("# {name} latency: {}", latency_summary(ms));
        }
    }
}

/// A seeded endless stream of distinct evaluation specs of `ops`
/// micro-ops: mutation chains from `bases`, each realized under the
/// default technology for a seeded workload of `profiles`.
pub struct FreshWrites {
    rng: SmallRng,
    seen: HashSet<String>,
    profiles: Vec<WorkloadProfile>,
    bases: Vec<DesignPoint>,
    tech: Technology,
    ops: u64,
}

impl FreshWrites {
    /// The stream for `seed`.
    pub fn new(
        seed: u64,
        profiles: &[WorkloadProfile],
        bases: &[DesignPoint],
        ops: u64,
    ) -> FreshWrites {
        FreshWrites {
            rng: SmallRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03),
            seen: HashSet::new(),
            profiles: profiles.to_vec(),
            bases: bases.to_vec(),
            tech: Technology::default(),
            ops,
        }
    }

    /// The next spec, distinct from every one before it.
    pub fn next_spec(&mut self) -> TaskSpec {
        loop {
            let rng = &mut self.rng;
            let profile = &self.profiles[rng.gen_range(0..self.profiles.len())];
            let mut point = self.bases[rng.gen_range(0..self.bases.len())].clone();
            for _ in 0..rng.gen_range(1..=3u32) {
                point = mutate(rng, &point);
            }
            let Some(config) = point.realize(&self.tech, &profile.name) else {
                continue;
            };
            let spec = TaskSpec::eval(profile, &config, self.ops);
            if self.seen.insert(spec.canonical()) {
                return spec;
            }
        }
    }

    /// The next `n` specs.
    pub fn take(&mut self, n: usize) -> Vec<TaskSpec> {
        (0..n).map(|_| self.next_spec()).collect()
    }
}

/// `n` distinct evaluation specs of `ops` micro-ops: the first `n` of
/// the seeded stream.
pub fn fresh_writes(
    seed: u64,
    profiles: &[WorkloadProfile],
    bases: &[DesignPoint],
    ops: u64,
    n: usize,
) -> Vec<TaskSpec> {
    FreshWrites::new(seed, profiles, bases, ops).take(n)
}
