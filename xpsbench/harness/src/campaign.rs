//! `campaign`: the paper's method end to end on the 11 SPEC profiles —
//! journaled annealing with cross seeding, the cross-configuration
//! matrix with replacement passes, then the Table 6 combination search
//! for k = 1..4 under every merit — at the default pipeline's trace
//! lengths (400k-op late anneal, 1M-op matrix cells, both past the
//! replay cache), with reduced annealing iteration counts.
//!
//! The campaign itself is one fixed computation (the default
//! pipeline's annealing seed), so every run does the same work and its
//! output is pinned for every seed; `--seed` varies the request
//! phase's inputs. A seeded annealing walk changes how many
//! replacement passes re-measure 1M-op cells, which moved the work of
//! a run by up to a third between seeds.

use crate::layers;
use crate::measure::{
    central_mean, cpu_seconds, digest, mean, peak_rss_mb, per_call_seconds, secs, Tracer,
};
use crate::queries::{self, FreshWrites, Requests, REQUEST_SHARE};
use crate::{Args, Outcome, Tally};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;
use xps_core::communal::{best_combination, CrossPerfMatrix, Merit};
use xps_core::explore::{Campaign, CustomizedCore, EvalCache, Journal, RunContext, TaskSpec};
use xps_core::pipeline::{cross_matrix_recoverable, Pipeline};
use xps_core::trace::{with_recorder, TraceSink};
use xps_core::workload::{spec, WorkloadProfile};

/// Annealing iterations per walk (the default pipeline runs 260).
const ITERATIONS: u32 = 8;
/// Iterations of each re-anneal after an adoption (default 60).
const REANNEAL_ITERATIONS: u32 = 2;
/// Worker threads, as `repro explore --jobs 2`.
const JOBS: usize = 2;
/// Timed blocks of set-ups after each campaign phase, interleaved with
/// the request slices so both span the run; `setup_s` is the central mean
/// of the blocks' times per set-up.
const SETUP_BLOCKS: usize = 10;
/// Set-ups per timed block.
const SETUP_REPS: usize = 500;
/// Trace length of the request phase's fresh evaluations: no length
/// the campaign itself evaluates, so every write simulates.
const WRITE_OPS: u64 = 50_000;

/// The campaign's pipeline: the default pipeline with its annealing
/// iteration counts reduced.
pub fn pipeline() -> Pipeline {
    let mut p = Pipeline::default();
    p.explore.anneal.iterations = ITERATIONS;
    p.explore.reanneal_iterations = REANNEAL_ITERATIONS;
    p.explore.jobs = JOBS;
    p
}

/// Everything a unit needs before its first evaluation.
struct Setup {
    profiles: Vec<WorkloadProfile>,
    pipeline: Pipeline,
    campaign: Campaign,
    ctx: RunContext,
}

/// Profile loading, option validation (which builds the technology
/// model) and a fresh checkpoint journal, as `repro explore` does
/// before its first task.
fn setup(work: &Path) -> Result<Setup, String> {
    let profiles = spec::all_profiles();
    let pipeline = pipeline();
    pipeline.validate().map_err(|e| e.to_string())?;
    let campaign = Campaign::try_new(pipeline.explore.clone()).map_err(|e| e.to_string())?;
    let journal =
        Journal::create(work.join("campaign-journal.jsonl")).map_err(|e| e.to_string())?;
    let ctx = RunContext::new().with_journal(journal);
    Ok(Setup {
        profiles,
        pipeline,
        campaign,
        ctx,
    })
}

/// The Table 6 answers: k = 1..4 under every merit.
fn table6(m: &CrossPerfMatrix) -> String {
    let mut out = String::new();
    for k in 1..=4 {
        for merit in Merit::ALL {
            let r = best_combination(m, k, merit);
            let _ = writeln!(
                out,
                "{k} {merit:?} {:?} {:?} {:?}",
                r.names, r.avg_ipt, r.har_ipt
            );
        }
    }
    out
}

/// One measured campaign.
struct Unit {
    cores: Vec<CustomizedCore>,
    matrix: CrossPerfMatrix,
    cache: EvalCache,
    doc: String,
    /// Wall and CPU seconds of both phases, pauses excluded.
    wall: f64,
    cpu: f64,
    /// Wall seconds of the matrix phase and Table 6.
    matrix_wall: f64,
    /// The journal's records, in file order, before it was discarded.
    journal: String,
    /// The program's own events (traced units only).
    sink: TraceSink,
}

/// Run `f`, returning its result with its wall and CPU seconds.
fn timed<R>(f: impl FnOnce() -> R) -> Result<(R, f64, f64), String> {
    let pid = std::process::id();
    let cpu0 = cpu_seconds(pid)?;
    let t = Instant::now();
    let r = f();
    let wall = secs(t);
    Ok((r, wall, cpu_seconds(pid)? - cpu0))
}

/// Run one campaign plus Table 6 as `Pipeline::run_recoverable` does:
/// the explore phase, then the cross-configuration matrix and Table 6,
/// each inside a benchmark span. `pause(s)` runs between the phases,
/// untimed, after an explore phase of `s` seconds. When `tracer` is
/// on, the program's events are collected through
/// `RunContext::with_trace`.
fn unit(
    s: Setup,
    tracer: &Tracer,
    pause: impl FnOnce(f64) -> Result<(), String>,
) -> Result<Unit, String> {
    let Setup {
        profiles,
        pipeline,
        campaign,
        mut ctx,
    } = s;
    let cache = EvalCache::new();
    let sink = TraceSink::with_wall_clock();
    if tracer.on() {
        ctx = ctx.with_trace(sink.clone());
    }
    let phases = || {
        let (explored, explore_wall, explore_cpu) = timed(|| {
            tracer.span("explore", "explore", || {
                campaign.explore_recoverable(&profiles, &cache, &ctx)
            })
        })?;
        let explored = explored.map_err(|e| e.to_string())?;
        pause(explore_wall)?;
        let mut configs: Vec<_> = explored.cores.iter().map(|c| c.config.clone()).collect();
        let (measured, matrix_wall, matrix_cpu) = timed(|| {
            let (matrix, _) = tracer
                .span("core", "cross_matrix", || {
                    cross_matrix_recoverable(
                        &profiles,
                        &mut configs,
                        pipeline.matrix_ops,
                        pipeline.replacement_passes,
                        pipeline.explore.jobs,
                        Some(&cache),
                        &ctx,
                    )
                })
                .map_err(|e| e.to_string())?;
            let answers = tracer.span("communal", "table6", || table6(&matrix));
            Ok::<_, String>((matrix, answers))
        })?;
        let (matrix, answers) = measured?;
        let cores: Vec<CustomizedCore> = explored
            .cores
            .into_iter()
            .zip(configs)
            .enumerate()
            .map(|(i, (mut core, config))| {
                core.ipt = matrix.ipt(i, i);
                core.config = config;
                core
            })
            .collect();
        let c = cache.counters();
        println!("# campaign: cache {} hits / {} misses", c.hits, c.misses);
        Ok::<_, String>((
            cores,
            matrix,
            answers,
            (
                explore_wall + matrix_wall,
                explore_cpu + matrix_cpu,
                matrix_wall,
            ),
        ))
    };
    let (cores, matrix, answers, (wall, cpu, matrix_wall)) = if tracer.on() {
        let (root, out) =
            with_recorder(sink.recorder(), || tracer.span("core", "campaign", phases));
        sink.attach("main", root);
        out?
    } else {
        phases()?
    };
    let journal = ctx.take_journal().ok_or("campaign lost its journal")?;
    let records = std::fs::read_to_string(journal.path()).map_err(|e| e.to_string())?;
    journal.discard().map_err(|e| e.to_string())?;
    let doc = format!(
        "{}\n{}\n{answers}",
        serde_json::to_string(&cores).map_err(|e| e.to_string())?,
        serde_json::to_string(&matrix).map_err(|e| e.to_string())?
    );
    Ok(Unit {
        cores,
        matrix,
        cache,
        doc,
        wall,
        cpu,
        matrix_wall,
        journal: records,
        sink,
    })
}

/// Checks on one unit's output: its structure, and its digest against
/// the pinned one (the campaign is the same for every seed) and
/// against `reference`.
fn check_unit(args: &Args, u: &Unit, reference: Option<&str>, tally: &mut Tally) -> String {
    tally.check(u.matrix.is_diagonal_dominant(), || {
        "campaign matrix is not diagonal dominant after replacement".to_string()
    });
    tally.check(u.cores.len() == spec::BENCHMARKS.len(), || {
        format!("campaign produced {} cores", u.cores.len())
    });
    let d = digest(&u.doc);
    tally.check_digest(Some(&args.digests), "campaign", &d, reference);
    d
}

/// Print the measured matrix's agreement with the published Table 5,
/// for information only: the simulator is a substitution.
fn print_table5_agreement(m: &CrossPerfMatrix) {
    let paper = xps_core::paper::table5_matrix();
    let mut pairs = Vec::new();
    for (w, wn) in m.names().iter().enumerate() {
        for (c, cn) in m.names().iter().enumerate() {
            if let (Some(pw), Some(pc)) = (paper.index_of(wn), paper.index_of(cn)) {
                if w != c {
                    pairs.push((m.slowdown(w, c), paper.slowdown(pw, pc)));
                }
            }
        }
    }
    let (mut concordant, mut discordant) = (0u64, 0u64);
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            let s = (pairs[i].0 - pairs[j].0) * (pairs[i].1 - pairs[j].1);
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let tau = (concordant as f64 - discordant as f64) / (concordant + discordant).max(1) as f64;
    println!(
        "# info: slowdown matrix vs published Table 5: Kendall tau {tau:.3} over {} off-diagonal cells (ungated)",
        pairs.len()
    );
}

/// The untraced run: set-ups, then campaigns until `--seconds` have
/// passed (at least one). After each phase of a campaign, from the
/// second phase on, the request phase runs on the first campaign's
/// results for a fixed share of the phase's time.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let off = Tracer::new(false);
    let mut setups = vec![setup_block(args)?];
    let start = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut first: Option<(Unit, Requests, String)> = None;
    loop {
        let u = unit(setup(&args.work)?, &off, |explore_s| match &mut first {
            Some((base, requests, _)) => {
                request_phase(args, base, requests, explore_s, &mut setups, &mut out.tally)
            }
            None => Ok(()),
        })?;
        let reference = first.as_ref().map(|f| f.2.as_str());
        let d = check_unit(args, &u, reference, &mut out.tally);
        walls.push(u.wall);
        cpus.push(u.cpu);
        let matrix_s = u.matrix_wall;
        // The first campaign's results answer every request.
        let (base, requests, _) = first.get_or_insert_with(|| {
            let r = requests(args, &u);
            (u, r, d)
        });
        request_phase(args, base, requests, matrix_s, &mut setups, &mut out.tally)?;
        if secs(start) >= args.seconds {
            break;
        }
    }
    let (base, requests, _) = first.ok_or("no campaign ran")?;
    print_table5_agreement(&base.matrix);
    println!("# campaigns: wall {walls:.3?} s, cpu {cpus:.2?} s");
    let m = &mut out.metrics;
    m.set("setup_s", central_mean(&setups), "s");
    m.set("wall_s", mean(&walls), "s");
    m.set("cpu_s", mean(&cpus), "s");
    requests.record(m);
    m.set("peak_rss_mb", peak_rss_mb(std::process::id())?, "MiB");
    Ok(out)
}

/// Seconds per set-up over one timed block of `SETUP_REPS`.
fn setup_block(args: &Args) -> Result<f64, String> {
    per_call_seconds(1, SETUP_REPS, || setup(&args.work))
}

/// Answer requests on `base`, the first campaign's results, for
/// `REQUEST_SHARE` of a phase that took `phase_s`, in slices between
/// timed blocks of set-ups, so both span the run.
fn request_phase(
    args: &Args,
    base: &Unit,
    requests: &mut Requests,
    phase_s: f64,
    setups: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let slice = phase_s * REQUEST_SHARE / SETUP_BLOCKS as f64;
    for _ in 0..SETUP_BLOCKS {
        requests.step(
            slice,
            &base.cache,
            |i| table6_column(&base.matrix, Merit::ALL[i % 3]),
            tally,
        );
        setups.push(setup_block(args)?);
    }
    Ok(())
}

/// One question: a Table 6 column, the best k-core combinations for
/// k = 1..4 under one merit.
fn table6_column(m: &CrossPerfMatrix, merit: Merit) -> Result<(), String> {
    for k in 1..=4 {
        let r = best_combination(m, k, merit);
        if r.cores.len() != k {
            return Err(format!("best_combination(k={k}) gave {:?}", r.cores));
        }
    }
    Ok(())
}

/// Reads re-ask the final matrix's cells, writes evaluate seeded
/// mutations of the customized cores; the questions are Table 6
/// answers.
fn requests(args: &Args, u: &Unit) -> Requests {
    let profiles = spec::all_profiles();
    let ops = pipeline().matrix_ops;
    let mut known = Vec::new();
    for (w, p) in profiles.iter().enumerate() {
        for (c, core) in u.cores.iter().enumerate() {
            let body = serde_json::to_string(&u.matrix.ipt(w, c)).unwrap_or_default();
            known.push((TaskSpec::eval(p, &core.config, ops), body));
        }
    }
    let bases: Vec<_> = u.cores.iter().map(|c| c.point.clone()).collect();
    let writes = FreshWrites::new(args.seed, &profiles, &bases, WRITE_OPS);
    Requests::new(args.seed, known, writes)
}

/// The traced run: one untraced campaign (the overhead baseline and
/// the output to agree with), one traced campaign, then the per-layer
/// replay harness on the campaign's own inputs.
pub fn run_traced(args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let base = unit(setup(&args.work)?, &Tracer::new(false), |_| Ok(()))?;
    let base_digest = check_unit(args, &base, None, &mut out.tally);
    let base_wall = base.wall;
    drop(base);
    let traced = unit(setup(&args.work)?, tracer, |_| Ok(()))?;
    check_unit(args, &traced, Some(&base_digest), &mut out.tally);
    let m = &mut out.metrics;
    m.set(
        "trace.overhead_frac",
        (traced.wall - base_wall) / base_wall,
        "ratio",
    );
    m.set("core.explore_s", tracer.total("explore"), "s");
    m.set("core.matrix_s", tracer.total("cross_matrix"), "s");
    layers::program_events(tracer, &traced.sink, m);
    let p = pipeline();
    let profiles = spec::all_profiles();
    let points: Vec<_> = traced.cores.iter().map(|c| c.point.clone()).collect();
    let writes = queries::fresh_writes(args.seed, &profiles, &points, WRITE_OPS, 40);
    let inputs = layers::Inputs {
        profiles,
        points,
        configs: traced.cores.iter().map(|c| c.config.clone()).collect(),
        eval_ops: vec![
            p.explore.anneal.eval_ops_early,
            p.explore.anneal.eval_ops_late,
            p.matrix_ops,
        ],
        journal: traced.journal.clone(),
        matrix: traced.matrix.clone(),
        writes,
    };
    layers::measure(args, tracer, &inputs, &mut out.tally, m)?;
    Ok(out)
}
