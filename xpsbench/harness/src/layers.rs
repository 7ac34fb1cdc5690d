//! The per-layer replay harness of a traced run: each layer's public
//! functions, timed from outside on the workload's own inputs (its
//! profiles, the configurations it produced, its trace lengths and its
//! journal), plus the counts the program's own trace events give.

use crate::measure::{median, secs, Metrics, Tracer};
use crate::{serve, Args, Tally};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use xps_core::cacti::Technology;
use xps_core::communal::{
    best_combination, hypervolume, pareto_front, CrossPerfMatrix, Merit, ParetoPoint,
};
use xps_core::explore::{
    crossover, explorer_by_name, mutate, search, DesignPoint, EvalCache, Journal, SearchOptions,
    TaskSpec, EXPLORER_NAMES,
};
use xps_core::sim::{
    estimate_energy, evaluate, CoreConfig, Hierarchy, Predictor, PredictorKind, Simulator,
};
use xps_core::trace::TraceSink;
use xps_core::workload::{
    with_cached_trace, MicroOp, TraceGenerator, WorkloadProfile, REPLAY_CACHE_MAX_OPS,
};
use xps_scenario::PopulationSpec;

/// Per-layer metrics, printed with `--trace 1` for every workload.
pub const PER_LAYER: [&str; 44] = [
    "workload.gen_mops",
    "workload.replay_mops",
    "workload.streamed_frac",
    "sim.engine_mops",
    "sim.evaluate_mops",
    "sim.hierarchy_maccess_per_s",
    "sim.predictor_mlookups_per_s",
    "sim.ops",
    "sim.runs",
    "cacti.realize_per_s",
    "cacti.unrealizable_frac",
    "explore.lookups",
    "explore.cache_hit_ratio",
    "explore.cache_hit_ns",
    "explore.sa_warm_ms",
    "explore.ga_warm_ms",
    "explore.surrogate_warm_ms",
    "explore.journal_record_us",
    "explore.journal_bytes",
    "core.explore_s",
    "core.matrix_s",
    "communal.table6_ms",
    "communal.pareto_us",
    "scenario.generate_ms",
    "serve.accept_wait_ms",
    "serve.task_handler_us",
    "serve.submit_handler_us",
    "serve.job_handler_us",
    "serve.http_parse_us",
    "serve.json_mb_s",
    "serve.store_get_us",
    "serve.store_put_us",
    "serve.task_execute_ms",
    "serve.store_hit_ratio",
    "trace.overhead_frac",
    "workload.self_s",
    "sim.self_s",
    "cacti.self_s",
    "explore.self_s",
    "core.self_s",
    "communal.self_s",
    "scenario.self_s",
    "serve.self_s",
    "trace.self_s",
];

/// Most ops generated or simulated per kernel call, so a traced run
/// stays within its time budget at 1M-op campaign lengths.
const KERNEL_OPS: u64 = 400_000;

/// The workload's own inputs the kernels replay.
pub struct Inputs {
    /// The workload's profiles.
    pub profiles: Vec<WorkloadProfile>,
    /// Design points the workload produced (mutation chain bases).
    pub points: Vec<DesignPoint>,
    /// Configurations the workload produced.
    pub configs: Vec<CoreConfig>,
    /// Evaluation trace lengths the workload uses, ascending.
    pub eval_ops: Vec<u64>,
    /// The workload's checkpoint journal, as written.
    pub journal: String,
    /// The workload's cross-configuration matrix.
    pub matrix: CrossPerfMatrix,
    /// Bodies of fresh evaluation specs the workload's writes carry.
    pub writes: Vec<TaskSpec>,
}

/// Record the counts the program's own trace events give: simulations
/// and simulated ops (`sim.run`), evaluation-cache lookups and hits,
/// and the share of looked-up ops too long for the replay cache.
pub fn program_events(tracer: &Tracer, sink: &TraceSink, m: &mut Metrics) {
    let (profile, journal) =
        tracer.span("trace", "aggregate", || (sink.profile(), sink.to_ndjson()));
    let row = |name: &str| profile.row(name).unwrap_or_default();
    m.set("sim.runs", row("sim.run").count as f64, "count");
    m.set("sim.ops", row("sim.run").ops as f64, "count");
    let lookups = row("cache.lookup").count;
    m.set("explore.lookups", lookups as f64, "count");
    m.set(
        "explore.cache_hit_ratio",
        row("cache.hit").count as f64 / lookups.max(1) as f64,
        "ratio",
    );
    let (mut streamed, mut total) = (0u64, 0u64);
    for line in journal.lines().filter(|l| l.contains("\"cache.lookup\"")) {
        let ops = serde_json::from_str::<serde::Value>(line)
            .ok()
            .and_then(|v| match v.member("attrs").and_then(|a| a.member("ops")) {
                Ok(serde::Value::U64(n)) => Some(*n),
                _ => None,
            })
            .unwrap_or(0);
        total += ops;
        if ops > REPLAY_CACHE_MAX_OPS {
            streamed += ops;
        }
    }
    m.set(
        "workload.streamed_frac",
        streamed as f64 / total.max(1) as f64,
        "ratio",
    );
}

/// Median seconds of `reps` timed calls of `f`.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        xs.push(secs(t));
    }
    median(&xs)
}

/// Time every layer kernel on `inputs` and record the per-layer
/// metrics the workload itself did not already give.
pub fn measure(
    args: &Args,
    tracer: &Tracer,
    inputs: &Inputs,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let longest = *inputs.eval_ops.last().ok_or("no evaluation lengths")?;
    let shortest = inputs.eval_ops[0];
    let kernel_ops = longest.min(KERNEL_OPS);
    let pairs: Vec<(&WorkloadProfile, &CoreConfig)> = inputs
        .configs
        .iter()
        .enumerate()
        .map(|(i, c)| (&inputs.profiles[i % inputs.profiles.len()], c))
        .take(4)
        .collect();

    // workload: generation at the workload's longest length, replay
    // from the per-thread cache at lengths it can hold.
    let (traces, gen_s) = tracer.span("workload", "generate", || {
        let gen_s = timed(3, || {
            for (p, _) in &pairs {
                let n = TraceGenerator::new((*p).clone())
                    .take(kernel_ops as usize)
                    .fold(0u64, |a, op| a ^ op.pc);
                black_box(n);
            }
        });
        let traces: Vec<Vec<MicroOp>> = pairs
            .iter()
            .map(|(p, _)| {
                TraceGenerator::new((*p).clone())
                    .take(kernel_ops as usize)
                    .collect()
            })
            .collect();
        (traces, gen_s)
    });
    m.set(
        "workload.gen_mops",
        (kernel_ops * pairs.len() as u64) as f64 / gen_s / 1e6,
        "Mop/s",
    );
    let replay_ops = shortest.min(REPLAY_CACHE_MAX_OPS);
    let replay_s = tracer.span("workload", "replay", || {
        for (p, _) in &pairs {
            with_cached_trace(p, replay_ops, |t| black_box(t.len()));
        }
        timed(5, || {
            for (p, _) in &pairs {
                let x =
                    with_cached_trace(p, replay_ops, |t| t.iter().fold(0u64, |a, op| a ^ op.addr));
                black_box(x);
            }
        })
    });
    m.set(
        "workload.replay_mops",
        (replay_ops * pairs.len() as u64) as f64 / replay_s / 1e6,
        "Mop/s",
    );

    // sim: the engine on pre-generated traces, evaluate end to end at
    // the longest length, and the cache hierarchy and predictor on the
    // traces' memory and branch streams.
    let engine_s = tracer.span("sim", "engine", || {
        timed(3, || {
            for ((_, cfg), t) in pairs.iter().zip(&traces) {
                black_box(Simulator::new(cfg).run(t.iter().copied(), kernel_ops));
            }
        })
    });
    m.set(
        "sim.engine_mops",
        (kernel_ops * pairs.len() as u64) as f64 / engine_s / 1e6,
        "Mop/s",
    );
    let eval_s = tracer.span("sim", "evaluate", || {
        timed(3, || {
            for (p, cfg) in &pairs {
                black_box(evaluate(p, cfg, kernel_ops));
            }
        })
    });
    m.set(
        "sim.evaluate_mops",
        (kernel_ops * pairs.len() as u64) as f64 / eval_s / 1e6,
        "Mop/s",
    );
    let mem: Vec<Vec<u64>> = traces
        .iter()
        .map(|t| {
            t.iter()
                .filter(|op| op.class.is_mem())
                .map(|op| op.addr)
                .collect()
        })
        .collect();
    let accesses: usize = mem.iter().map(Vec::len).sum();
    let hier_s = tracer.span("sim", "hierarchy", || {
        timed(3, || {
            for ((_, cfg), addrs) in pairs.iter().zip(&mem) {
                let mut h = Hierarchy::new(&cfg.l1, &cfg.l2, cfg.mem_cycles());
                let mut ready = 0u64;
                for (now, &a) in addrs.iter().enumerate() {
                    ready ^= h.access(a, now as u64);
                }
                black_box(ready);
            }
        })
    });
    m.set(
        "sim.hierarchy_maccess_per_s",
        accesses as f64 / hier_s / 1e6,
        "Maccess/s",
    );
    let branches: Vec<Vec<(u64, bool)>> = traces
        .iter()
        .map(|t| {
            t.iter()
                .filter_map(|op| op.branch.map(|b| (op.pc, b.taken)))
                .collect()
        })
        .collect();
    let lookups: usize = branches.iter().map(Vec::len).sum();
    let pred_s = tracer.span("sim", "predictor", || {
        timed(5, || {
            for stream in &branches {
                let mut p = Predictor::of_kind(PredictorKind::Gshare);
                let hits = stream
                    .iter()
                    .filter(|(pc, taken)| p.predict_and_update(*pc, *taken) == *taken)
                    .count();
                black_box(hits);
            }
        })
    });
    m.set(
        "sim.predictor_mlookups_per_s",
        lookups as f64 / pred_s / 1e6,
        "Mlookup/s",
    );
    drop(traces);

    // cacti: realize along seeded mutate/crossover chains from the
    // workload's own design points.
    let tech = Technology::default();
    let proposals: Vec<DesignPoint> = {
        let mut rng = SmallRng::seed_from_u64(args.seed ^ 0xC0FF_EE00);
        let bases = &inputs.points;
        (0..2_000)
            .map(|i| {
                let a = &bases[rng.gen_range(0..bases.len())];
                if i % 4 == 3 {
                    let b = &bases[rng.gen_range(0..bases.len())];
                    crossover(&mut rng, a, b)
                } else {
                    mutate(&mut rng, a)
                }
            })
            .collect()
    };
    let mut unrealizable = 0usize;
    let realize_s = tracer.span("cacti", "realize", || {
        let t = Instant::now();
        for p in &proposals {
            if black_box(p.realize(&tech, "bench")).is_none() {
                unrealizable += 1;
            }
        }
        secs(t)
    });
    m.set(
        "cacti.realize_per_s",
        proposals.len() as f64 / realize_s,
        "1/s",
    );
    m.set(
        "cacti.unrealizable_frac",
        unrealizable as f64 / proposals.len() as f64,
        "ratio",
    );

    // explore: the evaluation cache's hit path, each explorer's
    // overhead on a fully warm cache, and the journal's record path.
    let cache = EvalCache::new();
    let (hp, hc) = pairs[0];
    cache.stats(hp, hc, shortest);
    let hit_s = tracer.span("explore", "cache_hit", || {
        timed(5, || {
            for _ in 0..1_000 {
                black_box(cache.stats(hp, hc, shortest));
            }
        })
    });
    m.set("explore.cache_hit_ns", hit_s / 1_000.0 * 1e9, "ns");
    let opts = SearchOptions::quick();
    for (name, metric) in EXPLORER_NAMES.iter().zip([
        "explore.sa_warm_ms",
        "explore.ga_warm_ms",
        "explore.surrogate_warm_ms",
    ]) {
        let explorer = explorer_by_name(name).ok_or("unknown explorer")?;
        let cold = search(&*explorer, hp, &tech, &opts, &cache).map_err(|e| e.to_string())?;
        let warm_s = tracer.span("explore", name, || {
            timed(3, || {
                let warm = search(&*explorer, hp, &tech, &opts, &cache);
                tally.check(warm.as_ref().ok() == Some(&cold), || {
                    format!("warm {name} search differs from its cold run")
                });
            })
        });
        m.set(metric, warm_s * 1e3, "ms");
    }
    let (record_us, bytes) = tracer.span("explore", "journal", || {
        replay_journal(args, &inputs.journal)
    })?;
    m.set("explore.journal_record_us", record_us, "us");
    m.set("explore.journal_bytes", bytes, "bytes");

    // communal: Table 6 on the workload's matrix; Pareto front and
    // hypervolume over (IPT, energy per instruction) of its configs.
    let table6_s = tracer.span("communal", "table6", || {
        timed(5, || {
            for k in 1..=4.min(inputs.matrix.len()) {
                for merit in Merit::ALL {
                    black_box(best_combination(&inputs.matrix, k, merit));
                }
            }
        })
    });
    m.set("communal.table6_ms", table6_s * 1e3, "ms");
    let points: Vec<ParetoPoint> = inputs
        .profiles
        .iter()
        .flat_map(|p| inputs.configs.iter().map(move |c| (p, c)))
        .take(200)
        .map(|(p, c)| {
            let s = cache.stats(p, c, 12_000);
            ParetoPoint {
                ipt: s.ipt(),
                cost: estimate_energy(&tech, c, &s).total_nj() / s.instructions.max(1) as f64,
            }
        })
        .collect();
    let reference = ParetoPoint {
        ipt: 0.0,
        cost: points.iter().map(|p| p.cost).fold(0.0, f64::max),
    };
    let pareto_s = tracer.span("communal", "pareto", || {
        timed(21, || {
            let front = pareto_front(&points);
            black_box(hypervolume(&front, &reference));
        })
    });
    m.set("communal.pareto_us", pareto_s * 1e6, "us");

    // scenario: population generation.
    let population = PopulationSpec::all_families(6, args.seed);
    let gen_ms = tracer.span("scenario", "generate", || {
        timed(5, || {
            black_box(population.generate().map(|p| p.len()).unwrap_or(0));
        })
    }) * 1e3;
    m.set("scenario.generate_ms", gen_ms, "ms");

    // serve: the daemon's layers in-process on the workload's bodies.
    serve::layer_kernels(args, tracer, inputs, tally, m)
}

/// Re-record `journal`'s records, in file order, into a fresh journal:
/// the median `record` time over the last tenth of the records (the
/// run's final record count) in microseconds, and the bytes rewritten
/// over all the calls.
fn replay_journal(args: &Args, journal: &str) -> Result<(f64, f64), String> {
    let records: Vec<(String, String)> = journal
        .lines()
        .filter_map(|l| {
            let v: serde::Value = serde_json::from_str(l).ok()?;
            Some((
                v.member("task").ok()?.as_str().ok()?.to_string(),
                v.member("value").ok()?.as_str().ok()?.to_string(),
            ))
        })
        .collect();
    if records.is_empty() {
        return Err("the workload's journal holds no records".into());
    }
    let path = args.work.join("replayed-journal.jsonl");
    let j = Journal::create(&path).map_err(|e| e.to_string())?;
    let mut times = Vec::new();
    let mut bytes = 0u64;
    for (i, (task, value)) in records.iter().enumerate() {
        let t = Instant::now();
        j.record(task, value.clone()).map_err(|e| e.to_string())?;
        if i >= records.len() - records.len().div_ceil(10) {
            times.push(secs(t));
        }
        bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    }
    j.discard().map_err(|e| e.to_string())?;
    Ok((median(&times) * 1e6, bytes as f64))
}
