//! `serve`: an `xps-serve` daemon in its own process on loopback with a
//! fresh data dir, driven by a closed loop over two client connections
//! with a fixed mix of store-hit reads (`POST /tasks` re-asking an Eval
//! spec already run), fresh writes (`POST /tasks` on a new mutated
//! config, which simulates and writes the store), and `/jobs` questions
//! over a smoke campaign on all 11 workloads that set-up warms.

use crate::layers::{self, Inputs};
use crate::measure::{
    central_mean, cpu_seconds, digest, latency_summary, median, peak_rss_mb, per_call_seconds,
    percentile, secs, Metrics, Tracer,
};
use crate::queries;
use crate::{Args, Outcome, Tally};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use xps_core::explore::{DesignPoint, Journal, RunContext, TaskSpec};
use xps_core::pipeline::{cross_matrix_recoverable, Pipeline};
use xps_core::trace::{with_recorder, TraceSink};
use xps_core::workload::spec;
use xps_serve::client;
use xps_serve::{install_signal_handlers, Server, ServerConfig};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct Eval specs the reads cycle over, written during set-up.
const READ_SET: usize = 40;
/// Trace length of every written Eval spec: no length the smoke
/// campaign evaluates, so every write simulates.
const WRITE_OPS: u64 = 20_000;
/// Store-hit reads per loop: p99 has twenty samples beyond it.
const READS: usize = 2_000;
/// Fresh writes per loop: p90 has twenty samples beyond it. The loop's
/// length is what steadies the daemon's `cpu_s`.
const WRITES: usize = 200;
/// Distinct questions per loop (of the 144 the campaign answers).
const JOBS: usize = 100;
/// Concurrent client connections of the closed loop.
const CLIENTS: usize = 2;
/// Pipeline worker threads of the daemon's campaigns.
const PIPELINE_JOBS: usize = 2;
/// How long any one daemon operation may take before the run fails.
const DEADLINE: Duration = Duration::from_secs(120);

/// Run the daemon in the foreground: bind an ephemeral loopback port,
/// print it, serve until SIGTERM, drain.
pub fn daemon(data_dir: &Path) -> Result<(), String> {
    let mut config = ServerConfig::new(data_dir);
    config.pipeline_jobs = PIPELINE_JOBS;
    let server = Server::bind(&config).map_err(|e| e.to_string())?;
    let port = server.local_addr().map_err(|e| e.to_string())?.port();
    println!("port {port}");
    install_signal_handlers(server.shutdown_handle());
    server.run().map_err(|e| e.to_string())
}

/// A daemon child process.
pub struct Daemon {
    child: Child,
    /// Its `host:port`.
    pub addr: String,
}

impl Daemon {
    /// Start a daemon on a fresh data dir and wait until `/healthz`
    /// answers.
    pub fn start(data_dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(data_dir);
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--data-dir")
            .arg(data_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting the daemon: {e}"))?;
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let port = line
            .trim()
            .strip_prefix("port ")
            .ok_or_else(|| format!("daemon did not report its port: {line:?}"))?;
        daemon.addr = format!("127.0.0.1:{port}");
        let t = Instant::now();
        while client::request(&daemon.addr, "GET", "/healthz", None)
            .map(|r| r.status)
            .ok()
            != Some(200)
        {
            if t.elapsed() > DEADLINE {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `/metrics`, parsed.
    pub fn metrics(&self) -> Result<Value, String> {
        let r = client::request(&self.addr, "GET", "/metrics", None).map_err(|e| e.to_string())?;
        r.json().map_err(|e| e.to_string())
    }

    /// SIGTERM, then wait for the drain (SIGKILL past the deadline).
    pub fn stop(mut self) -> Result<(), String> {
        let _ = Command::new("kill")
            .arg("-TERM")
            .arg(self.child.id().to_string())
            .status();
        let t = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(_) => return Ok(()),
                None if t.elapsed() > Duration::from_secs(20) => {
                    return Err("daemon did not drain on SIGTERM".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `{"kind":...,"profile":"smoke","workloads":[...]}` plus `extra` fields.
fn job_body(extra: &str, workloads: &[&str]) -> String {
    let list: Vec<String> = workloads.iter().map(|w| format!("\"{w}\"")).collect();
    format!(
        "{{{extra},\"profile\":\"smoke\",\"workloads\":[{}]}}",
        list.join(",")
    )
}

/// Submit a job and poll it, with no sleep, until its answer arrives.
fn ask(addr: &str, body: &str) -> Result<String, String> {
    let (id, first) = client::submit(addr, body).map_err(|e| e.to_string())?;
    if first.status == 200 && first.body.contains("\"source\":\"store\"") {
        return Err(format!("question was already answered: {body}"));
    }
    let t = Instant::now();
    loop {
        let r = client::request(addr, "GET", &format!("/jobs/{id}"), None)
            .map_err(|e| e.to_string())?;
        match r.status {
            200 => return Ok(r.body),
            202 if t.elapsed() < DEADLINE => {}
            s => return Err(format!("job {id} answered HTTP {s}: {}", r.body)),
        }
    }
}

/// Post an Eval spec to `/tasks`; the full response body.
fn post_task(addr: &str, spec: &str) -> Result<String, String> {
    let r = client::request(addr, "POST", "/tasks", Some(spec)).map_err(|e| e.to_string())?;
    if r.status == 200 {
        Ok(r.body)
    } else {
        Err(format!("/tasks answered HTTP {}: {}", r.status, r.body))
    }
}

/// One request of the loop.
#[derive(Debug, Clone)]
enum Req {
    /// Re-post a spec whose response is known.
    Read(usize),
    /// Post a fresh spec.
    Write(String),
    /// Ask a question.
    Job(String),
}

/// The loop's outcome: latencies per kind, answers, wall time.
#[derive(Debug, Default)]
struct Loop {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    job_ms: Vec<f64>,
    /// `(request, response)` of every write and question, sorted.
    answers: Vec<(String, String)>,
    problems: Vec<String>,
    wall: f64,
}

/// Drive `plan` as a closed loop over `CLIENTS` connections: each
/// client sends its next request only when its previous one completed.
/// Each request is timed from send to the full response.
fn drive(addr: &str, plan: &[Req], reads: &[(String, String)]) -> Loop {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Loop::default());
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(req) = plan.get(i) else { break };
                let t = Instant::now();
                let result = match req {
                    Req::Read(k) => post_task(addr, &reads[*k].0).and_then(|body| {
                        if body == reads[*k].1 {
                            Ok(None)
                        } else {
                            Err(format!("read {k} returned {body}, written {}", reads[*k].1))
                        }
                    }),
                    Req::Write(spec) => post_task(addr, spec).map(|b| Some((spec.clone(), b))),
                    Req::Job(q) => ask(addr, q).map(|b| Some((q.clone(), b))),
                };
                let ms = secs(t) * 1e3;
                let mut o = out
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                match req {
                    Req::Read(_) => o.read_ms.push(ms),
                    Req::Write(_) => o.write_ms.push(ms),
                    Req::Job(_) => o.job_ms.push(ms),
                }
                match result {
                    Ok(Some(a)) => o.answers.push(a),
                    Ok(None) => {}
                    Err(e) => o.problems.push(e),
                }
            });
        }
    });
    let mut o = out
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    o.wall = secs(t);
    o.answers.sort();
    o
}

/// Every question over the warm campaign: evaluations of each workload
/// on each customized core, slowdown rows, and best combinations.
fn questions(workloads: &[&str]) -> Vec<String> {
    let mut qs = Vec::new();
    for w in workloads {
        for on in workloads {
            qs.push(job_body(
                &format!("\"kind\":\"evaluate\",\"workload\":\"{w}\",\"on\":\"{on}\""),
                workloads,
            ));
        }
        qs.push(job_body(
            &format!("\"kind\":\"slowdown\",\"workload\":\"{w}\""),
            workloads,
        ));
    }
    for k in 1..=4.min(workloads.len()) {
        for merit in ["har", "avg", "cw-har"] {
            qs.push(job_body(
                &format!("\"kind\":\"combination\",\"cores\":{k},\"merit\":\"{merit}\""),
                workloads,
            ));
        }
    }
    qs
}

/// A seeded request plan: `reads` store-hit reads over `read_set`
/// specs, the fresh `writes`, and `jobs` distinct questions, shuffled.
fn plan(
    seed: u64,
    reads: usize,
    read_set: usize,
    writes: &[String],
    qs: &[String],
    jobs: usize,
) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E57_E000);
    let mut qs = qs.to_vec();
    for i in (1..qs.len()).rev() {
        qs.swap(i, rng.gen_range(0..=i));
    }
    let mut p: Vec<Req> = (0..reads)
        .map(|i| Req::Read(i % read_set))
        .chain(writes.iter().cloned().map(Req::Write))
        .chain(qs.into_iter().take(jobs).map(Req::Job))
        .collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// Fresh Eval spec bodies: seeded mutations of the initial design
/// point, on seeded SPEC workloads.
fn write_specs(seed: u64, n: usize) -> Vec<String> {
    let specs = queries::fresh_writes(
        seed,
        &spec::all_profiles(),
        &[
            DesignPoint::initial(),
            DesignPoint::fast_corner(),
            DesignPoint::big_corner(),
        ],
        WRITE_OPS,
        n,
    );
    specs.iter().map(TaskSpec::canonical).collect()
}

/// Start a daemon and warm the smoke campaign over `workloads`.
fn set_up(dir: &Path, workloads: &[&str]) -> Result<Daemon, String> {
    let d = Daemon::start(dir)?;
    ask(&d.addr, &job_body("\"kind\":\"explore\"", workloads))?;
    Ok(d)
}

/// Latency per request of one endpoint between two `/metrics`
/// snapshots, microseconds.
fn handler_us(before: &Value, after: &Value, endpoint: &str) -> f64 {
    let get = |v: &Value, k: &str| match v
        .member("latency_us")
        .and_then(|l| l.member(endpoint))
        .and_then(|e| e.member(k))
    {
        Ok(Value::U64(n)) => *n as f64,
        _ => 0.0,
    };
    let n = get(after, "count") - get(before, "count");
    (get(after, "total_us") - get(before, "total_us")) / n.max(1.0)
}

fn fleet_count(v: &Value, key: &str) -> f64 {
    match v.member("fleet").and_then(|f| f.member(key)) {
        Ok(Value::U64(n)) => *n as f64,
        _ => 0.0,
    }
}

/// The daemon-side per-layer metrics of one loop: handler time per
/// endpoint, the wait outside the handler, and the store hit ratio.
fn daemon_layers(before: &Value, after: &Value, l: &Loop, m: &mut Metrics) {
    let task_us = handler_us(before, after, "task");
    m.set("serve.task_handler_us", task_us, "us");
    m.set(
        "serve.submit_handler_us",
        handler_us(before, after, "submit"),
        "us",
    );
    m.set(
        "serve.job_handler_us",
        handler_us(before, after, "job"),
        "us",
    );
    let client_task_ms: Vec<f64> = l.read_ms.iter().chain(&l.write_ms).copied().collect();
    let mean = client_task_ms.iter().sum::<f64>() / client_task_ms.len().max(1) as f64;
    m.set("serve.accept_wait_ms", mean - task_us / 1e3, "ms");
    let hits = fleet_count(after, "task_store_hits") - fleet_count(before, "task_store_hits");
    let runs = fleet_count(after, "tasks_executed") - fleet_count(before, "tasks_executed");
    m.set(
        "serve.store_hit_ratio",
        hits / (hits + runs).max(1.0),
        "ratio",
    );
    println!(
        "# serve: read p50 {:.3} ms = handler {:.3} ms + outside the handler {:.3} ms (mean over /tasks)",
        percentile(&l.read_ms, 0.5),
        task_us / 1e3,
        mean - task_us / 1e3
    );
}

/// Everything a loop needs: a warm daemon, the read set written.
struct Bench {
    daemon: Daemon,
    reads: Vec<(String, String)>,
    plan: Vec<Req>,
    setups: Vec<f64>,
}

fn prepare(args: &Args, tag: &str) -> Result<Bench, String> {
    let all: Vec<&str> = spec::BENCHMARKS.to_vec();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let d = set_up(&args.work.join(format!("serve-{tag}-{i}")), &all)?;
        setups.push(secs(t));
        if let Some(old) = daemon.replace(d) {
            Daemon::stop(old)?;
        }
    }
    let daemon = daemon.ok_or("no daemon")?;
    let specs = write_specs(args.seed, READ_SET + WRITES);
    let (read_specs, fresh) = specs.split_at(READ_SET);
    let reads = read_specs
        .iter()
        .map(|s| post_task(&daemon.addr, s).map(|b| (s.clone(), b)))
        .collect::<Result<Vec<_>, _>>()?;
    let plan = plan(args.seed, READS, READ_SET, fresh, &questions(&all), JOBS);
    Ok(Bench {
        daemon,
        reads,
        plan,
        setups,
    })
}

/// Run one loop on `b`, with the daemon's CPU and `/metrics` around it.
fn measured_loop(b: &Bench) -> Result<(Loop, f64, Value, Value), String> {
    let before = b.daemon.metrics()?;
    let cpu0 = cpu_seconds(b.daemon.pid())?;
    let l = drive(&b.daemon.addr, &b.plan, &b.reads);
    let cpu = cpu_seconds(b.daemon.pid())? - cpu0;
    let after = b.daemon.metrics()?;
    Ok((l, cpu, before, after))
}

fn tally_loop(args: &Args, l: &Loop, tally: &mut Tally, reference: Option<&str>) -> String {
    let n = l.read_ms.len() + l.write_ms.len() + l.job_ms.len();
    tally.attempted += n as u64;
    for p in &l.problems {
        tally.fail(p.clone());
    }
    let doc: String = l
        .answers
        .iter()
        .map(|(q, a)| format!("{q}\n{a}\n"))
        .collect();
    let d = digest(&doc);
    tally.check_digest(args.pinned(), "serve", &d, reference);
    d
}

/// The untraced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let b = prepare(args, "e2e")?;
    let (l, cpu, _, _) = measured_loop(&b)?;
    let rss = peak_rss_mb(b.daemon.pid())?;
    b.daemon.stop()?;
    tally_loop(args, &l, &mut out.tally, None);
    let m = &mut out.metrics;
    let done = (l.read_ms.len() + l.write_ms.len() + l.job_ms.len()) as f64;
    m.set("setup_s", median(&b.setups), "s");
    m.set("wall_s", l.wall, "s");
    m.set("cpu_s", cpu, "s");
    m.set("peak_rss_mb", rss, "MiB");
    m.set("req_per_s", done / l.wall, "req/s");
    for (name, ms) in [
        ("read", &l.read_ms),
        ("write", &l.write_ms),
        ("job", &l.job_ms),
    ] {
        m.set(&format!("{name}_ms"), central_mean(ms), "ms");
        println!("# {name} latency: {}", latency_summary(ms));
    }
    Ok(out)
}

/// The traced run: an untraced loop (the overhead baseline and the
/// answers to agree with), a traced loop with its `/metrics` handler
/// split, then the per-layer harness on the smoke campaign the daemon
/// warms (run in-process, journaled, phase by phase) and the loop's
/// own request bodies.
pub fn run_traced(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = prepare(args, "base")?;
    let (l0, _, _, _) = measured_loop(&base)?;
    base.daemon.stop()?;
    let d0 = tally_loop(args, &l0, &mut out.tally, None);
    let b = tracer.span("serve", "setup", || prepare(args, "traced"))?;
    let (l, _, before, after) = tracer.span("serve", "loop", || measured_loop(&b))?;
    b.daemon.stop()?;
    tally_loop(args, &l, &mut out.tally, Some(&d0));
    let m = &mut out.metrics;
    m.set("trace.overhead_frac", (l.wall - l0.wall) / l0.wall, "ratio");
    daemon_layers(&before, &after, &l, m);
    let writes = l
        .answers
        .iter()
        .filter_map(|(q, _)| serde_json::from_str::<TaskSpec>(q).ok())
        .collect();
    let inputs = smoke_inputs(args, tracer, &spec::all_profiles(), writes, m)?;
    layers::measure(args, tracer, &inputs, &mut out.tally, m)?;
    Ok(out)
}

/// The daemon's smoke campaign over `profiles`, run in-process the way
/// its engine runs it (journaled, traced), with the explore and matrix
/// phases timed separately: the per-layer inputs of a workload whose
/// own work does not produce a campaign.
pub fn smoke_inputs(
    args: &Args,
    tracer: &Tracer,
    profiles: &[xps_core::workload::WorkloadProfile],
    writes: Vec<TaskSpec>,
    m: &mut Metrics,
) -> Result<Inputs, String> {
    let mut p = Pipeline::quick();
    p.explore.anneal.iterations = 8;
    p.explore.anneal.eval_ops_early = 3_000;
    p.explore.anneal.eval_ops_late = 6_000;
    p.explore.reanneal_iterations = 3;
    p.matrix_ops = 8_000;
    p.explore.jobs = PIPELINE_JOBS;
    let path = args.work.join("smoke-journal.jsonl");
    let sink = TraceSink::with_wall_clock();
    let mut ctx = RunContext::new()
        .with_journal(Journal::create(&path).map_err(|e| e.to_string())?)
        .with_trace(sink.clone());
    let cache = xps_core::explore::EvalCache::new();
    let campaign =
        xps_core::explore::Campaign::try_new(p.explore.clone()).map_err(|e| e.to_string())?;
    let (root, res) = with_recorder(sink.recorder(), || {
        let t = Instant::now();
        let explored = tracer
            .span("explore", "explore", || {
                campaign.explore_recoverable(profiles, &cache, &ctx)
            })
            .map_err(|e| e.to_string())?;
        let explore_s = secs(t);
        let mut configs: Vec<_> = explored.cores.iter().map(|c| c.config.clone()).collect();
        let t = Instant::now();
        let (matrix, _) = tracer
            .span("core", "cross_matrix", || {
                cross_matrix_recoverable(
                    profiles,
                    &mut configs,
                    p.matrix_ops,
                    p.replacement_passes,
                    p.explore.jobs,
                    Some(&cache),
                    &ctx,
                )
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((explored.cores, configs, matrix, explore_s, secs(t)))
    });
    sink.attach("main", root);
    let (cores, configs, matrix, explore_s, matrix_s) = res?;
    m.set("core.explore_s", explore_s, "s");
    m.set("core.matrix_s", matrix_s, "s");
    if !m.has("sim.ops") {
        layers::program_events(tracer, &sink, m);
    }
    let journal = ctx
        .take_journal()
        .ok_or("smoke campaign lost its journal")?;
    let records = std::fs::read_to_string(journal.path()).map_err(|e| e.to_string())?;
    journal.discard().map_err(|e| e.to_string())?;
    Ok(Inputs {
        profiles: profiles.to_vec(),
        points: cores.iter().map(|c| c.point.clone()).collect(),
        configs,
        eval_ops: vec![
            p.explore.anneal.eval_ops_early,
            p.explore.anneal.eval_ops_late,
            p.matrix_ops,
        ],
        journal: records,
        matrix,
        writes,
    })
}

/// The daemon's layers, in-process on the workload's request bodies:
/// HTTP parsing, JSON, the result store and task execution; and, for
/// workloads that ran no daemon, a short probe loop for the handler
/// split.
pub fn layer_kernels(
    args: &Args,
    tracer: &Tracer,
    inputs: &Inputs,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let bodies: Vec<String> = inputs
        .writes
        .iter()
        .take(20)
        .map(TaskSpec::canonical)
        .collect();
    if bodies.is_empty() {
        return Err("no write bodies to replay".into());
    }
    let request = format!(
        "POST /tasks HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        bodies[0].len(),
        bodies[0]
    );
    let parses = || xps_serve::http::Request::parse(&mut request.as_bytes()).is_ok();
    let parse_s = tracer.span("serve", "http_parse", || {
        per_call_seconds(11, 200, || Ok(parses()))
    })?;
    tally.check(parses(), || "captured request does not parse".into());
    m.set("serve.http_parse_us", parse_s * 1e6, "us");
    let campaign_doc = format!(
        "{{\"matrix\":{}}}",
        serde_json::to_string(&inputs.matrix).map_err(|e| e.to_string())?
    );
    let mut bytes = 0usize;
    let json_s = tracer.span("serve", "json", || {
        let t = Instant::now();
        for _ in 0..20 {
            for b in &bodies {
                let spec: TaskSpec = serde_json::from_str(b).map_err(|e| e.to_string())?;
                bytes += b.len() + spec.canonical().len();
            }
            let v: Value = serde_json::from_str(&campaign_doc).map_err(|e| e.to_string())?;
            let out = serde_json::to_string(&v).map_err(|e| e.to_string())?;
            bytes += campaign_doc.len() + out.len();
        }
        Ok::<_, String>(secs(t))
    })?;
    m.set("serve.json_mb_s", bytes as f64 / json_s / 1e6, "MB/s");
    let dir = args.work.join("scratch-store");
    let _ = std::fs::remove_dir_all(&dir);
    let store = xps_serve::ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let ids: Vec<String> = bodies.iter().map(|b| xps_serve::content_id(b)).collect();
    let mut put = Vec::new();
    let mut get = Vec::new();
    tracer.span("serve", "store", || {
        for (id, b) in ids.iter().zip(&bodies) {
            let t = Instant::now();
            let ok = store.put(id, b).is_ok();
            put.push(secs(t));
            tally.check(ok, || format!("store put {id} failed"));
        }
        for _ in 0..5 {
            for (id, b) in ids.iter().zip(&bodies) {
                let t = Instant::now();
                let got = store.get(id);
                get.push(secs(t));
                tally.check(matches!(&got, Ok(Some(x)) if x == b), || {
                    format!("store get {id} gave {got:?}")
                });
            }
        }
    });
    let _ = std::fs::remove_dir_all(store.dir());
    m.set("serve.store_put_us", median(&put) * 1e6, "us");
    m.set("serve.store_get_us", median(&get) * 1e6, "us");
    let cache = xps_core::explore::EvalCache::new();
    let mut exec = Vec::new();
    tracer.span("serve", "task_execute", || {
        for spec in inputs.writes.iter().take(20) {
            let t = Instant::now();
            let got = spec.execute(&cache);
            exec.push(secs(t));
            tally.check(got.is_ok(), || format!("task execute failed: {got:?}"));
        }
    });
    m.set("serve.task_execute_ms", median(&exec) * 1e3, "ms");
    if !m.has("serve.accept_wait_ms") {
        probe(args, tracer, inputs, tally, m)?;
    }
    Ok(())
}

/// A short daemon loop on the workload's write bodies, for the handler
/// split of workloads that do not run a daemon themselves.
fn probe(
    args: &Args,
    tracer: &Tracer,
    inputs: &Inputs,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let pair = ["gzip", "mcf"];
    tracer.span("serve", "probe", || {
        let d = set_up(&args.work.join("serve-probe"), &pair)?;
        let bodies: Vec<String> = inputs
            .writes
            .iter()
            .take(20)
            .map(TaskSpec::canonical)
            .collect();
        let reads = bodies
            .iter()
            .map(|s| post_task(&d.addr, s).map(|b| (s.clone(), b)))
            .collect::<Result<Vec<_>, _>>()?;
        let writes: Vec<String> = inputs
            .writes
            .iter()
            .skip(20)
            .take(20)
            .map(TaskSpec::canonical)
            .collect();
        let plan = plan(args.seed, 60, reads.len(), &writes, &questions(&pair), 10);
        let before = d.metrics()?;
        let l = drive(&d.addr, &plan, &reads);
        let after = d.metrics()?;
        d.stop()?;
        tally.attempted += plan.len() as u64;
        for p in &l.problems {
            tally.fail(p.clone());
        }
        daemon_layers(&before, &after, &l, m);
        Ok(())
    })
}
