//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--paper-data] [--quick] [--jobs N]
//!
//! experiments:
//!   explore      run the measured exploration campaign and persist it
//!   table1       unit → CACTI-query mapping with reference delays
//!   table2       fixed technology parameters
//!   table3       the initial configuration
//!   table4       customized configurations per benchmark
//!   table5       cross-configuration IPT matrix
//!   table6       best core combinations per figure of merit
//!   table7       dual-core design summary
//!   fig1         Kiviat graphs of raw workload characteristics
//!   fig2         clock-period / sizing slack scenarios
//!   fig3         subset-first vs customize-first methodologies
//!   fig4         per-benchmark IPT under different core sets
//!   fig5         propagation-mode illustration
//!   fig6         greedy surrogates, no propagation
//!   fig7         greedy surrogates, full propagation
//!   fig8         greedy surrogates, forward propagation
//!   appendix-a   percentage-slowdown matrix
//!   pitfall      the §5.3 subsetting pitfall
//!   schedule     §5.5 job-arrival contention study
//!   ablation-tech  how technology scaling shifts customized configs
//!   ablation-power performance-optimal vs EDP-optimal customization
//!   ablation-predictor  mispredict/IPT sensitivity to the predictor
//!   ablation-search  simulated annealing vs exhaustive grid search
//!   ablation-prefetch  what a prefetcher would absorb of the story
//!   dendrogram   subsetting dendrogram of raw characteristics
//!   visualize    cross-configuration slowdown heat map
//!   profile      self-profile a quick 2-benchmark exploration: per-phase
//!                table, deterministic trace journal, collapsed stacks
//!   serve        run the exploration-as-a-service daemon (xps-serve)
//!   client       submit a smoke exploration to a running daemon
//!   analyze      static analysis: lint workspace sources, validate artifacts
//!   scale        generate a synthetic workload population (xps-scenario)
//!                and run the subsetting-at-scale study: per-panel
//!                campaigns, clustering-vs-subsetting gap distribution,
//!                measured pitfall rate (see `repro scale --help`)
//!   bakeoff      run every explorer (anneal, genetic, surrogate) at an
//!                equal evaluation budget over the SPEC profiles plus
//!                seeded scenario panels and emit the win matrix,
//!                evals-to-best curves, and Pareto hypervolumes
//!                (see `repro bakeoff --help`)
//!   bench        measure engine throughput before/after the hot-loop
//!                overhaul (reference vs optimized, same process) and
//!                write `BENCH_10.json`; `--check` compares against the
//!                committed file and fails on a >10% geomean regression
//!                or any single row losing more than 25%
//!   all          everything above (except profile/serve/client/fleet/analyze/scale/bakeoff/bench), in order
//!
//! `--paper-data` analyses the paper's published Table 5 instead of
//! this repository's measured matrix; `--quick` shrinks the measured
//! exploration budget (demo-scale); `--jobs N` sets the worker-thread
//! count of the measured exploration (default: available parallelism;
//! results are bit-identical for every value).
//!
//! Crash-safety flags (the measured campaign journals every completed
//! task to `results/journal.jsonl`):
//!
//! * `--resume` — replay the journal of an interrupted campaign and
//!   re-run only the missing tasks; the output is byte-identical to an
//!   uninterrupted run.
//! * `--retries N` — extra attempts per task after a failure
//!   (default 2).
//! * `--faults SPEC` — deterministic fault injection, e.g.
//!   `rate=20,seed=7,attempts=1,kind=panic`.
//! * `--journal PATH` — journal location override.
//!
//! Serving flags (`serve` and `client` only):
//!
//! * `--addr HOST:PORT` — daemon bind / client target address
//!   (default `127.0.0.1:7780`).
//! * `--data-dir PATH` — daemon state root (default `results/serve`).
//!
//! Scale-study flags (`scale` only; `repro scale --help` lists them
//! with defaults):
//!
//! * `--families LIST` — comma-separated scenario families.
//! * `--n N` — population size.
//! * `--seed N` — population seed.
//! * `--out PATH` — canonical report destination.
//!
//! Bake-off flags (`bakeoff` only; `repro bakeoff --help` lists them
//! with defaults):
//!
//! * `--budget N` — simulated design-point evaluations per explorer
//!   per workload (every explorer gets exactly the same budget).
//! * `--seed N` — search seed shared by every explorer.
//! ```

// The dispatch tables below use `Ok(experiment())` so each arm stays a
// one-liner; every experiment returns `()`.
#![allow(clippy::unit_arg)]

use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};
use xps_bench::{
    load_measured, measured_path, render_kiviat, render_table, save_measured, Measured,
};
use xps_core::communal::{
    assign_surrogates, best_combination, ideal_performance, pitfall_experiment, simulate_jobs,
    CrossPerfMatrix, JobPolicy, Merit, Propagation, ScheduleOptions, Surrogating,
};
use xps_core::explore::{constants, EvalCache, FaultPlan, Journal, RunContext};
use xps_core::paper;
use xps_core::pipeline::Pipeline;
use xps_core::sim::{CoreConfig, Simulator};
use xps_core::workload::{spec, Characterizer, TraceGenerator, KIVIAT_AXES};
use xps_core::{cacti, table7};
use xps_serve::{FlakyTransport, Fleet, FleetConfig, NetFaultPlan, TcpTransport};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    Paper,
    Measured,
}

/// Default location of the campaign checkpoint journal.
const JOURNAL_PATH: &str = "results/journal.jsonl";

const USAGE: &str = "usage: repro <experiment> [--paper-data] [--quick] [--jobs N] \
[--resume] [--retries N] [--faults SPEC] [--journal PATH] [--addr HOST:PORT] \
[--data-dir PATH] [--workers HOST:PORT,..] [--net-faults SPEC] [--families LIST] \
[--n N] [--seed N] [--budget N] [--out PATH]  (see --help)";

/// Every experiment `repro` knows, in `repro all` order where
/// applicable; the tail entries are the standalone services/studies
/// excluded from `all`.
const EXPERIMENTS: [&str; 35] = [
    "explore",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "appendix-a",
    "pitfall",
    "schedule",
    "ablation-tech",
    "ablation-power",
    "ablation-predictor",
    "ablation-search",
    "ablation-prefetch",
    "dendrogram",
    "visualize",
    "profile",
    "serve",
    "client",
    "fleet",
    "analyze",
    "scale",
    "bakeoff",
    "bench",
    "all",
];

/// Parsed command line of the `repro` binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Cli {
    /// The experiment to run.
    cmd: String,
    /// `--quick`: demo-scale exploration budget.
    quick: bool,
    /// `--paper-data`: analyse the published Table 5 instead.
    paper_data: bool,
    /// `--jobs N`: worker threads (0 = available parallelism; an
    /// explicit `--jobs 0` is rejected at parse time).
    jobs: usize,
    /// `--resume`: replay the journal, re-run only missing tasks.
    resume: bool,
    /// `--retries N`: per-task retry budget override.
    retries: Option<u32>,
    /// `--faults SPEC`: deterministic fault injection (validated at
    /// parse time, kept as the raw spec).
    faults: Option<String>,
    /// `--journal PATH`: journal location override.
    journal: Option<PathBuf>,
    /// `--addr HOST:PORT`: daemon bind / client target address.
    addr: Option<String>,
    /// `--data-dir PATH`: daemon state root.
    data_dir: Option<PathBuf>,
    /// `--workers HOST:PORT,..` (`fleet` only): worker addresses.
    workers: Vec<String>,
    /// `--net-faults SPEC` (`fleet` only): deterministic network
    /// fault injection (validated at parse time, kept as the raw
    /// spec).
    net_faults: Option<String>,
    /// `--check` (`bench` only): compare against the committed
    /// `BENCH_*.json` instead of rewriting it.
    check: bool,
    /// `--families LIST` (`scale` only): comma-separated scenario
    /// families (validated at parse time, kept as the raw list).
    families: Option<String>,
    /// `--n N` (`scale` only): population size.
    n: Option<usize>,
    /// `--seed N` (`scale`/`bakeoff`): population / search seed.
    seed: Option<u64>,
    /// `--budget N` (`bakeoff` only): evaluations per explorer per
    /// workload.
    budget: Option<u64>,
    /// `--out PATH` (`scale`/`bakeoff`): canonical report destination.
    out: Option<PathBuf>,
    /// `--help` / `-h`.
    help: bool,
}

/// Consume the value of `--flag VALUE` / `--flag=VALUE` at `args[*i]`.
fn flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    if let Some(rest) = args[*i].strip_prefix(flag) {
        if let Some(v) = rest.strip_prefix('=') {
            return Ok(v.to_string());
        }
    }
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value (as in `{flag} N` or `{flag}=N`)"))
}

/// Parse the argument list strictly: every flag is known, every value
/// is validated, and anything else is a one-line actionable error —
/// a typo can no longer silently run the wrong experiment.
fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].clone();
        let name = arg.split('=').next().unwrap_or(&arg);
        let is_bool = matches!(
            name,
            "--quick" | "--paper-data" | "--resume" | "--check" | "--help" | "-h"
        );
        if is_bool && arg != name {
            return Err(format!("{name} takes no value (got `{arg}`)"));
        }
        match name {
            "--quick" => cli.quick = true,
            "--paper-data" => cli.paper_data = true,
            "--resume" => cli.resume = true,
            "--check" => cli.check = true,
            "--help" | "-h" => cli.help = true,
            "--jobs" => {
                let v = flag_value(args, &mut i, "--jobs")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a number, got `{v}`"))?;
                if n == 0 {
                    return Err(
                        "--jobs 0 is not a worker count; pass --jobs N with N >= 1, \
                         or omit --jobs to use all available cores"
                            .to_string(),
                    );
                }
                cli.jobs = n;
            }
            "--retries" => {
                let v = flag_value(args, &mut i, "--retries")?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("--retries expects a number, got `{v}`"))?;
                cli.retries = Some(n);
            }
            "--faults" => {
                let v = flag_value(args, &mut i, "--faults")?;
                FaultPlan::parse(&v)?;
                cli.faults = Some(v);
            }
            "--journal" => {
                let v = flag_value(args, &mut i, "--journal")?;
                cli.journal = Some(PathBuf::from(v));
            }
            "--addr" => {
                let v = flag_value(args, &mut i, "--addr")?;
                if !v.contains(':') {
                    return Err(format!("--addr expects HOST:PORT, got `{v}`"));
                }
                cli.addr = Some(v);
            }
            "--data-dir" => {
                let v = flag_value(args, &mut i, "--data-dir")?;
                cli.data_dir = Some(PathBuf::from(v));
            }
            "--workers" => {
                let v = flag_value(args, &mut i, "--workers")?;
                let workers: Vec<String> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if let Some(bad) = workers.iter().find(|w| !w.contains(':')) {
                    return Err(format!("--workers expects HOST:PORT entries, got `{bad}`"));
                }
                cli.workers = workers;
            }
            "--net-faults" => {
                let v = flag_value(args, &mut i, "--net-faults")?;
                xps_serve::NetFaultPlan::parse(&v)?;
                cli.net_faults = Some(v);
            }
            "--families" => {
                let v = flag_value(args, &mut i, "--families")?;
                let entries: Vec<&str> = v
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .collect();
                if entries.is_empty() {
                    return Err("--families expects a comma-separated list, e.g. \
                         `--families expected,stress,adversarial`"
                        .to_string());
                }
                for f in &entries {
                    xps_scenario::Family::parse(f)?;
                }
                cli.families = Some(entries.join(","));
            }
            "--n" => {
                let v = flag_value(args, &mut i, "--n")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--n expects a number, got `{v}`"))?;
                if n < 4 {
                    return Err(format!(
                        "--n {n} is too small for the methodology comparison; \
                         pass --n N with N >= 4"
                    ));
                }
                cli.n = Some(n);
            }
            "--seed" => {
                let v = flag_value(args, &mut i, "--seed")?;
                let s: u64 = v
                    .parse()
                    .map_err(|_| format!("--seed expects a u64, got `{v}`"))?;
                cli.seed = Some(s);
            }
            "--budget" => {
                let v = flag_value(args, &mut i, "--budget")?;
                let b: u64 = v
                    .parse()
                    .map_err(|_| format!("--budget expects a number, got `{v}`"))?;
                if b == 0 {
                    return Err("--budget 0 would let no explorer evaluate anything; \
                         pass --budget N with N >= 1"
                        .to_string());
                }
                cli.budget = Some(b);
            }
            "--out" => {
                let v = flag_value(args, &mut i, "--out")?;
                cli.out = Some(PathBuf::from(v));
            }
            _ if name.starts_with('-') => {
                return Err(format!(
                    "unknown flag `{name}` (flags: --paper-data --quick --jobs N \
                     --resume --retries N --faults SPEC --journal PATH \
                     --addr HOST:PORT --data-dir PATH --workers HOST:PORT,.. \
                     --net-faults SPEC --families LIST --n N --seed N --budget N \
                     --out PATH --check --help)"
                ));
            }
            _ => {
                if cli.cmd.is_empty() {
                    cli.cmd = arg;
                } else {
                    return Err(format!(
                        "unexpected argument `{arg}` (already running `{}`; \
                         one experiment per invocation)",
                        cli.cmd
                    ));
                }
            }
        }
        i += 1;
    }
    if !cli.help && cli.cmd.is_empty() {
        return Err(format!("missing experiment; {USAGE}"));
    }
    Ok(cli)
}

/// Campaign options shared by every experiment that may trigger the
/// measured exploration. Set once in `main`; a process-wide cell
/// avoids threading the knobs through every table function.
#[derive(Debug, Default)]
struct RunOpts {
    jobs: usize,
    resume: bool,
    retries: Option<u32>,
    faults: Option<FaultPlan>,
    journal: Option<PathBuf>,
    addr: Option<String>,
    data_dir: Option<PathBuf>,
    workers: Vec<String>,
    net_faults: Option<String>,
    check: bool,
    families: Option<String>,
    n: Option<usize>,
    seed: Option<u64>,
    budget: Option<u64>,
    out: Option<PathBuf>,
}

static RUN: OnceLock<RunOpts> = OnceLock::new();

fn run_opts() -> &'static RunOpts {
    RUN.get_or_init(RunOpts::default)
}

/// A CLI command's run context and, when tasks are scattered, its fleet.
type CommandContext = (RunContext, Option<Arc<Fleet>>);

/// The `RunContext` of a CLI command: the `XPS_FAULTS` plan, then
/// `--retries` and `--faults`. With a `journal` default path, a
/// checkpoint journal at `--journal` (or that default), resumed under
/// `--resume` and created fresh otherwise. With `fleet`, the
/// `--workers` dispatcher (when any worker is named), which is also
/// returned for its end-of-run stats.
fn run_context(journal: Option<&str>, fleet: bool) -> Result<CommandContext, Box<dyn Error>> {
    let opts = run_opts();
    let mut ctx = RunContext::from_env()?;
    if let Some(default) = journal {
        let path = opts
            .journal
            .clone()
            .unwrap_or_else(|| PathBuf::from(default));
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let journal = if opts.resume {
            let journal = Journal::open(&path)?;
            eprintln!(
                "[resuming from {}: {} journaled task(s)]",
                path.display(),
                journal.loaded()
            );
            journal
        } else {
            Journal::create(&path)?
        };
        ctx = ctx.with_journal(journal);
    }
    if let Some(r) = opts.retries {
        ctx = ctx.with_retries(r);
    }
    if let Some(plan) = opts.faults.clone() {
        ctx = ctx.with_faults(plan);
    }
    if !fleet || opts.workers.is_empty() {
        return Ok((ctx, None));
    }
    let fleet = fleet_dispatcher()?;
    Ok((ctx.with_dispatcher(fleet.clone()), Some(fleet)))
}

/// The fleet coordinator over `--workers`, with `--retries` and the
/// `--net-faults` (or `XPS_NET_FAULTS`) flaky-transport plan.
fn fleet_dispatcher() -> Result<Arc<Fleet>, Box<dyn Error>> {
    let opts = run_opts();
    let mut cfg = FleetConfig::new(opts.workers.clone());
    if let Some(retries) = opts.retries {
        cfg.retries = retries;
    }
    let plan = match opts.net_faults.as_deref() {
        Some(spec) => Some(NetFaultPlan::parse(spec)?),
        None => NetFaultPlan::from_env()?,
    };
    let tcp = TcpTransport {
        connect_timeout: cfg.connect_timeout,
    };
    Ok(Arc::new(match plan {
        Some(plan) if plan.is_active() => {
            eprintln!("[injecting network faults: {plan:?}]");
            Fleet::new(cfg, Arc::new(FlakyTransport::new(plan, tcp)))
        }
        _ => Fleet::new(cfg, Arc::new(tcp)),
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cli.help || cli.cmd == "help" {
        if cli.cmd == "scale" {
            print_scale_help();
            return ExitCode::SUCCESS;
        }
        if cli.cmd == "bakeoff" {
            print_bakeoff_help();
            return ExitCode::SUCCESS;
        }
        println!(
            "see `repro` module docs; experiments: {}",
            EXPERIMENTS.join(" ")
        );
        println!("flags: --paper-data --quick --jobs N --resume --retries N --faults SPEC --journal PATH --addr HOST:PORT --data-dir PATH --workers HOST:PORT,.. --net-faults SPEC --families LIST --n N --seed N --budget N --out PATH --check");
        return ExitCode::SUCCESS;
    }
    let faults = match cli.faults.as_deref().map(FaultPlan::parse).transpose() {
        Ok(f) => f,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    RUN.set(RunOpts {
        jobs: cli.jobs,
        resume: cli.resume,
        retries: cli.retries,
        faults,
        journal: cli.journal.clone(),
        addr: cli.addr.clone(),
        data_dir: cli.data_dir.clone(),
        workers: cli.workers.clone(),
        net_faults: cli.net_faults.clone(),
        check: cli.check,
        families: cli.families.clone(),
        n: cli.n,
        seed: cli.seed,
        budget: cli.budget,
        out: cli.out.clone(),
    })
    .expect("options set once");
    let source = if cli.paper_data {
        Source::Paper
    } else {
        Source::Measured
    };
    let quick = cli.quick;
    let outcome = if cli.cmd == "all" {
        (|| {
            for c in [
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "table6",
                "table7",
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "appendix-a",
                "pitfall",
                "schedule",
                "ablation-tech",
                "ablation-power",
                "ablation-predictor",
                "ablation-search",
                "ablation-prefetch",
                "dendrogram",
                "visualize",
            ] {
                println!("\n================ {c} ================\n");
                run_dispatch(c, source, quick)?;
            }
            Ok(())
        })()
    } else {
        run_dispatch(&cli.cmd, source, quick)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro {}: {e}", cli.cmd);
            ExitCode::FAILURE
        }
    }
}

fn run_dispatch(c: &str, source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    match c {
        "explore" => {
            explore(quick)?;
            Ok(())
        }
        "table1" => Ok(table1()),
        "table2" => Ok(table2()),
        "table3" => Ok(table3()),
        "table4" => table4(source, quick),
        "table5" => table5(source, quick),
        "table6" => table6(source, quick),
        "table7" => table7_cmd(source, quick),
        "fig1" => Ok(fig1(quick)),
        "fig2" => Ok(fig2()),
        "fig3" => fig3(source, quick),
        "fig4" => fig4(source, quick),
        "fig5" => Ok(fig5()),
        "fig6" => figs678(source, quick, Propagation::None),
        "fig7" => figs678(source, quick, Propagation::ForwardBackward),
        "fig8" => figs678(source, quick, Propagation::Forward),
        "appendix-a" => appendix_a(source, quick),
        "pitfall" => pitfall(source, quick),
        "schedule" => schedule(source, quick),
        "ablation-tech" => ablation_tech(),
        "ablation-power" => ablation_power(),
        "ablation-predictor" => Ok(ablation_predictor()),
        "ablation-search" => ablation_search(),
        "ablation-prefetch" => Ok(ablation_prefetch()),
        "dendrogram" => Ok(dendrogram_cmd(quick)),
        "visualize" => visualize(source, quick),
        "profile" => profile_cmd(quick),
        "serve" => serve_cmd(),
        "client" => client_cmd(quick),
        "fleet" => fleet_cmd(quick),
        "analyze" => analyze_cmd(),
        "scale" => scale_cmd(quick),
        "bakeoff" => bakeoff_cmd(quick),
        "bench" => bench_cmd(quick, run_opts().check),
        _ => Err(format!(
            "unknown experiment `{c}`; available: {}",
            EXPERIMENTS.join(" ")
        )
        .into()),
    }
}

/// `repro scale --help`: every scale flag with its default.
fn print_scale_help() {
    println!(
        "usage: repro scale [flags]\n\n\
         Generate a synthetic workload population with xps-scenario and run\n\
         the subsetting-at-scale study: the population is split into panels,\n\
         each panel runs the full configurational campaign, and both Figure-3\n\
         routes plus the \u{a7}5.3 pitfall experiment are scored per panel. The\n\
         canonical report is byte-identical for any --jobs value or fleet\n\
         worker count.\n\n\
         flags (with defaults):\n\
         \x20 --families LIST         scenario families, comma-separated\n\
         \x20                         (default: expected,stress,adversarial)\n\
         \x20 --n N                   population size, N >= 4 (default: 96)\n\
         \x20 --seed N                population seed (default: 42)\n\
         \x20 --out PATH              canonical report destination\n\
         \x20                         (default: results/scale.json)\n\
         \x20 --quick                 smoke-scale study budget (default: off;\n\
         \x20                         the default budget is the quick pipeline)\n\
         \x20 --jobs N                worker threads per panel campaign\n\
         \x20                         (default: available parallelism)\n\
         \x20 --workers HOST:PORT,..  scatter tasks over fleet workers\n\
         \x20                         (default: none; run coordinator-local)\n\
         \x20 --retries N             per-task retry budget (default: 2)\n\
         \x20 --net-faults SPEC       seeded network fault injection, e.g.\n\
         \x20                         drop=10,seed=3 (default: none)\n\
         \x20 --faults SPEC           deterministic task fault injection\n\
         \x20                         (default: none)"
    );
}

/// `repro bakeoff --help`: every bake-off flag with its default.
fn print_bakeoff_help() {
    println!(
        "usage: repro bakeoff [flags]\n\n\
         Run the explorer portfolio — simulated annealing, a genetic\n\
         algorithm, and a surrogate-guided searcher — at an equal budget of\n\
         simulated design-point evaluations over the 11 SPEC profiles plus\n\
         seeded scenario panels, and emit the win matrix, evals-to-best\n\
         curves, and IPT-vs-energy Pareto fronts with per-explorer\n\
         hypervolume. The canonical report is byte-identical for any --jobs\n\
         value, rerun, or fleet worker count.\n\n\
         flags (with defaults):\n\
         \x20 --quick                 smoke-scale bake-off (3 SPEC profiles,\n\
         \x20                         4 scenario members, budget 14; default:\n\
         \x20                         full quick study — 11 SPEC profiles,\n\
         \x20                         6 scenario members, budget 60)\n\
         \x20 --budget N              evaluations per explorer per workload\n\
         \x20                         (default: 14 with --quick, 60 without)\n\
         \x20 --seed N                search seed shared by every explorer\n\
         \x20                         (default: 24301)\n\
         \x20 --families LIST         scenario families, comma-separated\n\
         \x20                         (default: expected,stress,adversarial)\n\
         \x20 --n N                   scenario population size, N >= 4\n\
         \x20                         (default: 4 with --quick, 6 without)\n\
         \x20 --out PATH              canonical report destination\n\
         \x20                         (default: results/bakeoff.json)\n\
         \x20 --jobs N                worker threads for the workload fan-out\n\
         \x20                         (default: available parallelism)\n\
         \x20 --resume                replay the bake-off journal and re-run\n\
         \x20                         only the missing tasks (default: off)\n\
         \x20 --journal PATH          journal location\n\
         \x20                         (default: results/bakeoff-journal.jsonl)\n\
         \x20 --workers HOST:PORT,..  scatter search tasks over fleet workers\n\
         \x20                         (default: none; run coordinator-local)\n\
         \x20 --retries N             per-task retry budget (default: 2)\n\
         \x20 --net-faults SPEC       seeded network fault injection, e.g.\n\
         \x20                         drop=10,seed=3 (default: none)\n\
         \x20 --faults SPEC           deterministic task fault injection\n\
         \x20                         (default: none)"
    );
}

/// Default location of the bake-off checkpoint journal (distinct from
/// the campaign journal so an interrupted `explore` and an interrupted
/// `bakeoff` never replay each other's tasks).
const BAKEOFF_JOURNAL_PATH: &str = "results/bakeoff-journal.jsonl";

/// `repro bakeoff`: run every explorer at the same evaluation budget
/// over the SPEC profiles plus seeded scenario panels and write the
/// canonical bake-off report. The fan-out goes through the task
/// dispatcher seam, so `--workers` scales it over a fleet without
/// changing a byte of the output.
fn bakeoff_cmd(quick: bool) -> Result<(), Box<dyn Error>> {
    use xps_scenario::{run_bakeoff, BakeoffOptions, Family, PopulationSpec};
    let opts = run_opts();
    let mut bake = if quick {
        BakeoffOptions::smoke()
    } else {
        BakeoffOptions::quick()
    };
    bake.jobs = opts.jobs;
    if let Some(b) = opts.budget {
        bake.search.budget = b;
    }
    if let Some(s) = opts.seed {
        bake.search.seed = s;
    }
    if opts.families.is_some() || opts.n.is_some() {
        let families = match opts.families.as_deref() {
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(Family::parse)
                .collect::<Result<Vec<_>, String>>()?,
            None => Family::ALL.to_vec(),
        };
        let (n0, seed0) = bake
            .scenario
            .as_ref()
            .map(|s| (s.n, s.seed))
            .unwrap_or((6, 11));
        bake.scenario = Some(PopulationSpec {
            families,
            n: opts.n.unwrap_or(n0),
            seed: seed0,
        });
    }
    let (mut ctx, fleet) = run_context(Some(BAKEOFF_JOURNAL_PATH), true)?;
    eprintln!(
        "[bake-off: budget={} seed={} spec={} scenario={} worker(s)={}]",
        bake.search.budget,
        bake.search.seed,
        bake.spec_workloads.len(),
        bake.scenario.as_ref().map(|s| s.n).unwrap_or(0),
        if opts.workers.is_empty() {
            "local".to_string()
        } else {
            opts.workers.join(",")
        }
    );
    // xps-allow(determinism-provenance): CLI progress timing printed to stderr; the report never sees it
    let t0 = std::time::Instant::now();
    let report = run_bakeoff(&bake, &ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("[{wall:.1}s wall]");
    if let Some(fleet) = fleet {
        let s = fleet.stats();
        eprintln!(
            "[fleet: {} task(s) remote, {} local-degraded, {} retries, {} quarantines]",
            s.dispatched, s.degraded, s.retried, s.quarantines
        );
    }
    print!("{}", report.render_human());
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/bakeoff.json"));
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    xps_core::explore::write_atomic(&out, &report.canonical())?;
    println!(
        "\n[bake-off report {} — byte-identical for any --jobs, rerun, or worker count]",
        out.display()
    );
    // The bake-off is persisted; the checkpoints have served their
    // purpose.
    if let Some(j) = ctx.take_journal() {
        j.discard()?;
    }
    Ok(())
}

/// `repro analyze`: the project's static analyzer — lint every
/// workspace source against the textual rule registry, run the
/// determinism-provenance and lock-discipline passes over the
/// cross-crate call graph (incrementally: unchanged files reuse their
/// cached summaries from `target/analyze-cache.json`), then validate
/// the on-disk artifacts under `results/` (and the serve data dir,
/// when present) against the model domains. Exits non-zero on any
/// deny-severity finding, like CI does.
fn analyze_cmd() -> Result<(), Box<dyn Error>> {
    let root = std::path::Path::new(".");
    let opts = xps_analyze::WorkspaceOptions {
        incremental: true,
        cache_path: None,
    };
    let source = xps_analyze::analyze_workspace(root, &opts)?;
    print!("{}", source.render_human("source"));
    let mut data = xps_analyze::Report::default();
    for dir in ["results", "serve-data"] {
        let dir = root.join(dir);
        if dir.is_dir() {
            data.merge(xps_analyze::artifact::check_dir(&dir)?);
        }
    }
    data.sort();
    print!("{}", data.render_human("data"));
    if source.is_clean() && data.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} deny finding(s); see diagnostics above",
            source.deny_count() + data.deny_count()
        )
        .into())
    }
}

/// The perf-trajectory file for this round of engine work. Each
/// hot-loop PR commits a `BENCH_<n>.json` so the series records how
/// throughput moved over time.
const BENCH_PATH: &str = "BENCH_10.json";

/// Workloads measured by `repro bench` — the same three the Criterion
/// `simulator` group tracks.
const BENCH_WORKLOADS: [&str; 3] = ["gzip", "mcf", "crafty"];

/// `--check` fails when the geometric-mean speedup over the matched
/// rows falls more than this far below the committed baseline's.
/// Single rows drift several percent with host cache and frequency
/// state even though both engines run back to back, so the mean gate
/// is tight.
const BENCH_TOLERANCE: f64 = 0.10;

/// `--check` also fails when any *single* matched row loses more than
/// this fraction of its committed speedup. The geomean alone lets one
/// kernel regress badly while the other rows hide it; the per-row
/// bound is looser than the mean bound precisely because individual
/// rows are noisier.
const BENCH_ROW_TOLERANCE: f64 = 0.25;

/// One (workload, config, op budget) measurement: both engines timed
/// in the same process on the same pre-materialized trace.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchRow {
    workload: String,
    config: String,
    ops: u64,
    /// Pre-overhaul [`sim::ReferenceSimulator`] throughput, micro-ops/sec.
    before_ops_per_sec: f64,
    /// Optimized [`Simulator`] throughput, micro-ops/sec.
    after_ops_per_sec: f64,
    /// `after / before`. Machine-neutral: both engines ran in the same
    /// process and build, so drift cancels out of the ratio.
    speedup: f64,
}

/// The machine-readable contents of [`BENCH_PATH`].
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct BenchReport {
    issue: u32,
    note: String,
    rows: Vec<BenchRow>,
}

/// Gate fresh measurements against the committed baseline. Two rules,
/// both on the machine-neutral speedup column:
///
/// 1. The geometric mean over the matched rows must stay within
///    [`BENCH_TOLERANCE`] of the committed geomean.
/// 2. Every single matched row must stay within
///    [`BENCH_ROW_TOLERANCE`] of its committed speedup — one kernel
///    can no longer hide a bad regression behind the mean.
///
/// Returns the human summary on success and the (first) violated rule
/// as the error.
fn check_bench(rows: &[BenchRow], baseline: &BenchReport) -> Result<String, String> {
    let mut compared = 0usize;
    let (mut log_now, mut log_base) = (0.0f64, 0.0f64);
    let mut worst_row: Option<String> = None;
    for r in rows {
        let Some(b) = baseline
            .rows
            .iter()
            .find(|b| b.workload == r.workload && b.config == r.config && b.ops == r.ops)
        else {
            continue;
        };
        compared += 1;
        log_now += r.speedup.ln();
        log_base += b.speedup.ln();
        let row_floor = b.speedup * (1.0 - BENCH_ROW_TOLERANCE);
        if r.speedup < row_floor && worst_row.is_none() {
            worst_row = Some(format!(
                "row regression vs {BENCH_PATH}: {}/{}/{} ops speedup {:.2}x fell \
                 below {row_floor:.2}x (committed {:.2}x minus {:.0}% per-row \
                 tolerance); the geomean gate alone would let this hide behind \
                 the other rows",
                r.workload,
                r.config,
                r.ops,
                r.speedup,
                b.speedup,
                BENCH_ROW_TOLERANCE * 100.0
            ));
        }
    }
    if compared == 0 {
        return Err(format!(
            "--check matched no rows of {BENCH_PATH} (budget mismatch? \
             the committed file must include the budgets being checked)"
        ));
    }
    let geo_now = (log_now / compared as f64).exp();
    let geo_base = (log_base / compared as f64).exp();
    let floor = geo_base * (1.0 - BENCH_TOLERANCE);
    if geo_now < floor {
        return Err(format!(
            "throughput regression vs {BENCH_PATH}: geomean speedup {geo_now:.2}x \
             over {compared} row(s) fell below {floor:.2}x (baseline {geo_base:.2}x \
             minus {:.0}% tolerance)",
            BENCH_TOLERANCE * 100.0
        ));
    }
    if let Some(row) = worst_row {
        return Err(row);
    }
    Ok(format!(
        "[bench --check: geomean speedup {geo_now:.2}x over {compared} row(s), \
         within {:.0}% of committed {geo_base:.2}x; every row within {:.0}%]",
        BENCH_TOLERANCE * 100.0,
        BENCH_ROW_TOLERANCE * 100.0
    ))
}

/// Best-of-N wall times for a (reference, optimized) pair. The reps
/// interleave the two engines so host-state drift during the
/// measurement lands on both sides of the ratio.
fn bench_pair(
    reps: u32,
    mut before: impl FnMut() -> f64,
    mut after: impl FnMut() -> f64,
) -> (f64, f64) {
    let (mut best_b, mut best_a) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_b = best_b.min(before());
        best_a = best_a.min(after());
    }
    (best_b, best_a)
}

/// `repro bench`: measure the reference (pre-overhaul) and optimized
/// cycle engines back to back on identical traces and emit the
/// before/after table as `BENCH_10.json` (or, with `--check`, compare
/// the fresh speedups against the committed file and fail on a >10%
/// geomean regression or any single row losing more than 25% — see
/// [`check_bench`]). Absolute ops/sec depends on the host; the speedup
/// column is the portable number, which is why the regression gate is
/// on speedup and not on raw throughput.
fn bench_cmd(quick: bool, check: bool) -> Result<(), Box<dyn Error>> {
    use xps_core::sim::ReferenceSimulator;

    let budgets: &[u64] = if quick { &[50_000] } else { &[50_000, 400_000] };
    let reps: u32 = if quick { 3 } else { 5 };
    let mut rows = Vec::new();
    for name in BENCH_WORKLOADS {
        let p = spec::profile(name).expect("bench workloads are known benchmarks");
        let max_ops = *budgets.last().expect("at least one budget") as usize;
        let trace: Vec<_> = TraceGenerator::new(p).take(max_ops).collect();
        let configs = [
            ("initial".to_string(), CoreConfig::initial()),
            (
                "table4".to_string(),
                paper::table4_config(name).expect("bench workloads are in Table 4"),
            ),
        ];
        for (cfg_name, cfg) in &configs {
            for &ops in budgets {
                let slice = &trace[..ops as usize];
                let timed = |stats_of: &mut dyn FnMut() -> u64| -> f64 {
                    // xps-allow(determinism-provenance): a benchmark's output *is* wall time; simulated results stay deterministic
                    let t0 = std::time::Instant::now();
                    let cycles = stats_of();
                    let dt = t0.elapsed().as_secs_f64();
                    std::hint::black_box(cycles);
                    dt
                };
                let (before, after) = bench_pair(
                    reps,
                    || {
                        timed(&mut || {
                            ReferenceSimulator::new(cfg)
                                .run(slice.iter().copied(), ops)
                                .cycles
                        })
                    },
                    || timed(&mut || Simulator::new(cfg).run(slice.iter().copied(), ops).cycles),
                );
                rows.push(BenchRow {
                    workload: name.to_string(),
                    config: cfg_name.clone(),
                    ops,
                    before_ops_per_sec: ops as f64 / before,
                    after_ops_per_sec: ops as f64 / after,
                    speedup: before / after,
                });
            }
        }
    }

    println!(
        "{:<10} {:<8} {:>8} {:>14} {:>14} {:>9}",
        "workload", "config", "ops", "before op/s", "after op/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<10} {:<8} {:>8} {:>14.0} {:>14.0} {:>8.2}x",
            r.workload, r.config, r.ops, r.before_ops_per_sec, r.after_ops_per_sec, r.speedup
        );
    }

    if check {
        let text = std::fs::read_to_string(BENCH_PATH)
            .map_err(|e| format!("--check needs a committed {BENCH_PATH}: {e}"))?;
        let baseline: BenchReport = serde_json::from_str(&text)
            .map_err(|e| format!("{BENCH_PATH} is not a valid bench report: {e}"))?;
        println!("{}", check_bench(&rows, &baseline)?);
        return Ok(());
    }

    let report = BenchReport {
        issue: 10,
        note: "Throughput refresh for the explorer-portfolio PR: issue-slot ring + \
               filtered store forwarding + SoA MSHRs vs the pre-overhaul reference \
               engine, measured back to back in one process on identical traces."
            .to_string(),
        rows,
    };
    let json = serde_json::to_string_pretty(&report)?;
    xps_core::explore::write_atomic(std::path::Path::new(BENCH_PATH), &json)?;
    println!("[wrote {BENCH_PATH}]");
    Ok(())
}

/// Run (or reuse) the measured campaign. A missing results file means
/// "no campaign yet" and triggers one; a corrupt or truncated file is
/// an error — it is never silently explored over.
fn measured(quick: bool) -> Result<Measured, Box<dyn Error>> {
    let path = measured_path();
    match load_measured(&path) {
        Ok(m) if m.quick == quick => {
            eprintln!(
                "[using cached {} — delete it to re-explore]",
                path.display()
            );
            return Ok(m);
        }
        Ok(_) => {} // budget mismatch: re-explore
        Err(e) if e.is_not_found() => {}
        Err(e) => return Err(format!("{e}; delete the file to re-explore").into()),
    }
    explore(quick)
}

fn explore(quick: bool) -> Result<Measured, Box<dyn Error>> {
    let opts = run_opts();
    eprintln!(
        "[running measured exploration campaign ({}) — this simulates ~10^9 micro-ops]",
        if quick { "quick" } else { "full" }
    );
    let mut pipeline = if quick {
        Pipeline::quick()
    } else {
        Pipeline::default()
    };
    pipeline.explore.jobs = opts.jobs;
    let (mut ctx, _) = run_context(Some(JOURNAL_PATH), false)?;
    // xps-allow(determinism-provenance): CLI progress timing printed to stderr; measured results never see it
    let t0 = std::time::Instant::now();
    let result = pipeline.run(&spec::all_profiles(), &EvalCache::new(), &ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    let s = &result.stats;
    eprintln!(
        "[{wall:.1}s wall on {} worker(s); cache {} hits / {} misses ({:.1}% hit rate); evals per worker: {}]",
        s.workers,
        s.cache.hits,
        s.cache.misses,
        s.cache.hit_rate() * 100.0,
        s.per_worker_tasks
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("/"),
    );
    let r = &s.recovery;
    eprintln!(
        "[crash-safety: {} task(s) executed, {} salvaged from the journal, {} retried, {} fault(s) injected{}]",
        r.executed,
        r.salvaged,
        r.retried,
        r.faults_injected,
        if r.failed_tasks.is_empty() {
            String::new()
        } else {
            format!("; degraded around failed tasks: {}", r.failed_tasks.join(", "))
        }
    );
    let m = Measured::from((result, quick));
    save_measured(&m, &measured_path())?;
    eprintln!("[saved {}]", measured_path().display());
    // The campaign is persisted; the checkpoints have served their
    // purpose.
    if let Some(j) = ctx.take_journal() {
        j.discard()?;
    }
    Ok(m)
}

fn matrix_for(
    source: Source,
    quick: bool,
) -> Result<(CrossPerfMatrix, &'static str), Box<dyn Error>> {
    match source {
        Source::Paper => Ok((paper::table5_matrix(), "published Table 5")),
        Source::Measured => Ok((measured(quick)?.matrix, "measured matrix")),
    }
}

fn table1() {
    let tech = cacti::Technology::default();
    println!("Table 1: unit -> CACTI query (reference delays at representative sizes)\n");
    let rows = vec![
        vec![
            "L1 data cache".into(),
            "sets x assoc x line, 2R/2W".into(),
            "access time".into(),
            format!(
                "{:.3} ns (32 KB, 2w, 64 B)",
                cacti::units::l1_access_time(&tech, 256, 2, 64)
            ),
        ],
        vec![
            "L2 data cache".into(),
            "sets x assoc x line, 2R/2W".into(),
            "access time".into(),
            format!(
                "{:.3} ns (2 MB, 4w, 128 B)",
                cacti::units::l2_access_time(&tech, 4096, 4, 128)
            ),
        ],
        vec![
            "wakeup-select".into(),
            "CAM 2xIQ entries + RAM select".into(),
            "tag cmp + datapath".into(),
            format!(
                "{:.3} ns (IQ 64, width 4)",
                cacti::units::issue_queue_delay(&tech, 64, 4)
            ),
        ],
        vec![
            "reg file (ROB)".into(),
            "RAM, 2w read / w write ports".into(),
            "access time".into(),
            format!(
                "{:.3} ns (ROB 256, width 4)",
                cacti::units::regfile_access_time(&tech, 256, 4)
            ),
        ],
        vec![
            "LSQ".into(),
            "CAM, 2 search ports".into(),
            "datapath w/o driver".into(),
            format!("{:.3} ns (LSQ 128)", cacti::units::lsq_delay(&tech, 128)),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "unit".into(),
                "organization".into(),
                "CACTI output".into(),
                "model delay".into()
            ],
            &rows
        )
    );
}

fn table2() {
    println!("Table 2: fixed design parameters\n");
    println!(
        "  memory access latency    {} ns",
        constants::MEMORY_LATENCY_NS
    );
    println!(
        "  front-end latency        {} ns",
        constants::FRONTEND_LATENCY_NS
    );
    println!(
        "  bit-width of IQ entries  {} bits",
        constants::IQ_ENTRY_BITS
    );
    println!("  latch latency            {} ns", constants::LATCH_NS);
}

fn table3() {
    let c = CoreConfig::initial();
    println!("Table 3: initial configuration used across all benchmarks\n");
    println!("{}", config_table(&[c]));
}

type ParamCell = Box<dyn Fn(&CoreConfig) -> String>;

fn config_table(configs: &[CoreConfig]) -> String {
    let header: Vec<String> = std::iter::once("parameter".to_string())
        .chain(configs.iter().map(|c| c.name.clone()))
        .collect();
    let param_rows: Vec<(&str, ParamCell)> = vec![
        (
            "mem access cycles",
            Box::new(|c| c.mem_cycles().to_string()),
        ),
        (
            "front-end stages",
            Box::new(|c| c.frontend_depth.to_string()),
        ),
        ("width", Box::new(|c| c.width.to_string())),
        ("ROB size", Box::new(|c| c.rob_size.to_string())),
        ("issue queue size", Box::new(|c| c.iq_size.to_string())),
        (
            "min awaken latency",
            Box::new(|c| c.wakeup_extra.to_string()),
        ),
        ("sched/RF depth", Box::new(|c| c.sched_depth.to_string())),
        ("clock (ns)", Box::new(|c| format!("{:.2}", c.clock_ns))),
        ("L1D assoc", Box::new(|c| c.l1.geometry.assoc.to_string())),
        (
            "L1D block (B)",
            Box::new(|c| c.l1.geometry.block_bytes.to_string()),
        ),
        ("L1D sets", Box::new(|c| c.l1.geometry.sets.to_string())),
        (
            "L1D KB",
            Box::new(|c| (c.l1.geometry.capacity_bytes() / 1024).to_string()),
        ),
        ("L1D cycles", Box::new(|c| c.l1.latency.to_string())),
        ("L2D assoc", Box::new(|c| c.l2.geometry.assoc.to_string())),
        (
            "L2D block (B)",
            Box::new(|c| c.l2.geometry.block_bytes.to_string()),
        ),
        ("L2D sets", Box::new(|c| c.l2.geometry.sets.to_string())),
        (
            "L2D KB",
            Box::new(|c| (c.l2.geometry.capacity_bytes() / 1024).to_string()),
        ),
        ("L2D cycles", Box::new(|c| c.l2.latency.to_string())),
        ("LSQ size", Box::new(|c| c.lsq_size.to_string())),
    ];
    let rows: Vec<Vec<String>> = param_rows
        .iter()
        .map(|(name, f)| {
            std::iter::once(name.to_string())
                .chain(configs.iter().map(f.as_ref()))
                .collect()
        })
        .collect();
    render_table(&header, &rows)
}

fn table4(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let configs = match source {
        Source::Paper => paper::table4_configs(),
        Source::Measured => measured(quick)?
            .cores
            .iter()
            .map(|c| c.config.clone())
            .collect(),
    };
    println!(
        "Table 4: customized architectural configurations ({})\n",
        match source {
            Source::Paper => "published",
            Source::Measured => "measured",
        }
    );
    println!("{}", config_table(&configs));
    Ok(())
}

fn matrix_table(m: &CrossPerfMatrix, cell: impl Fn(usize, usize) -> String) -> String {
    let header: Vec<String> = std::iter::once(String::new())
        .chain(m.names().iter().cloned())
        .collect();
    let rows: Vec<Vec<String>> = (0..m.len())
        .map(|w| {
            std::iter::once(m.names()[w].clone())
                .chain((0..m.len()).map(|c| cell(w, c)))
                .collect()
        })
        .collect();
    render_table(&header, &rows)
}

fn table5(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("Table 5: IPT of each benchmark (rows) on each customized architecture (columns) [{label}]\n");
    println!("{}", matrix_table(&m, |w, c| format!("{:.2}", m.ipt(w, c))));
    Ok(())
}

fn appendix_a(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("Appendix A: percentage slowdown on other benchmarks' architectures [{label}]\n");
    println!(
        "{}",
        matrix_table(&m, |w, c| format!("{:.1}%", m.slowdown(w, c) * 100.0))
    );
    Ok(())
}

fn table6(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("Table 6: best core combinations and their performance [{label}]\n");
    let mut rows = Vec::new();
    for k in 1..=4usize {
        for merit in Merit::ALL {
            let r = best_combination(&m, k, merit);
            rows.push(vec![
                format!("{k} best config(s) for {}", merit.label()),
                r.names.join(", "),
                format!("{:.2}", r.avg_ipt),
                format!("{:.2}", r.har_ipt),
            ]);
        }
    }
    let (avg, har) = ideal_performance(&m);
    rows.push(vec![
        "each benchmark on its own architecture".into(),
        "-".into(),
        format!("{avg:.2}"),
        format!("{har:.2}"),
    ]);
    println!(
        "{}",
        render_table(
            &[
                "criterion".into(),
                "customized core(s)".into(),
                "avg IPT".into(),
                "har IPT".into()
            ],
            &rows
        )
    );
    Ok(())
}

fn table7_cmd(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("Table 7: dual-core CMP summary [{label}]\n");
    let t = table7(&m);
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                if r.architectures.len() == m.len() {
                    "(all)".to_string()
                } else {
                    r.architectures.join(", ")
                },
                format!("{:.2}", r.harmonic_ipt),
                format!("{:.0}%", r.slowdown_vs_ideal * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "scenario".into(),
                "arch(s)".into(),
                "har IPT".into(),
                "slowdown vs ideal".into()
            ],
            &rows
        )
    );
    Ok(())
}

fn fig1(quick: bool) {
    let ops = if quick { 40_000 } else { 150_000 };
    println!("Figure 1: Kiviat graphs of raw (microarchitecture-independent) characteristics, 0-10 scale\n");
    for p in spec::all_profiles() {
        let mut ch = Characterizer::new();
        for op in TraceGenerator::new(p.clone()).take(ops) {
            ch.observe(&op);
        }
        let v = ch.finish();
        println!("{}:", p.name);
        print!("{}", render_kiviat(&KIVIAT_AXES, &v.kiviat()));
    }
}

fn fig2() {
    let tech = cacti::Technology::default();
    println!("Figure 2: clock period vs. issue-queue / L1 sizing scenarios\n");
    println!("(delays from the CACTI model; slack = stage budget - unit delay)\n");
    let scenarios = [
        (
            "a: 1.00 ns clock, IQ 64, L1 32 KB in 1 cycle",
            1.00,
            64u32,
            256u32,
            1u32,
        ),
        (
            "b: 0.66 ns clock, IQ 64, L1 32 KB in 1 cycle",
            0.66,
            64,
            256,
            1,
        ),
        (
            "c: 0.66 ns clock, IQ 32, L1 32 KB in 1 cycle",
            0.66,
            32,
            256,
            1,
        ),
        (
            "d: 1.00 ns clock, IQ 64, L1 128 KB in 2 cycles",
            1.00,
            64,
            1024,
            2,
        ),
    ];
    let mut rows = Vec::new();
    for (label, clock, iq, l1_sets, l1_cycles) in scenarios {
        let iq_delay = cacti::units::issue_queue_delay(&tech, iq, 4);
        let l1_delay = cacti::units::l1_access_time(&tech, l1_sets, 2, 64);
        let iq_budget = cacti::fit::stage_budget(&tech, clock, 1);
        let l1_budget = cacti::fit::stage_budget(&tech, clock, l1_cycles);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}/{:.2}", iq_delay, iq_budget),
            format!("{:+.2}", iq_budget - iq_delay),
            format!("{:.2}/{:.2}", l1_delay, l1_budget),
            format!("{:+.2}", l1_budget - l1_delay),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "scenario".into(),
                "IQ delay/budget (ns)".into(),
                "IQ slack".into(),
                "L1 delay/budget (ns)".into(),
                "L1 slack".into()
            ],
            &rows
        )
    );
}

fn fig3(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    use xps_core::communal::compare_methodologies;
    let (m, label) = matrix_for(source, quick)?;
    println!("Figure 3: subset-first (a) vs customize-first (b) methodologies [{label}]\n");
    // Raw characteristics measured from the workload models, matched to
    // the matrix's benchmark order.
    let ops = if quick { 40_000 } else { 120_000 };
    let chars: Vec<Vec<f64>> = m
        .names()
        .iter()
        .map(|n| {
            let p = spec::profile(n).ok_or_else(|| format!("no workload model for `{n}`"))?;
            let mut c = Characterizer::new();
            for op in TraceGenerator::new(p).take(ops) {
                c.observe(&op);
            }
            Ok(c.finish().kiviat().to_vec())
        })
        .collect::<Result<_, String>>()?;
    let mut rows = Vec::new();
    for reps in [4usize, 6, 8] {
        for cores in [2usize, 3] {
            if cores > reps {
                continue;
            }
            let r = compare_methodologies(&m, &chars, reps, cores, Merit::HarmonicMean);
            rows.push(vec![
                reps.to_string(),
                cores.to_string(),
                r.subset_first_choice.join("+"),
                format!("{:.3}", r.subset_first_value),
                r.customize_first_choice.join("+"),
                format!("{:.3}", r.customize_first_value),
                format!("{:.1}%", r.subsetting_loss * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "reps".into(),
                "cores".into(),
                "(a) choice".into(),
                "(a) har".into(),
                "(b) choice".into(),
                "(b) har".into(),
                "loss".into()
            ],
            &rows
        )
    );
    println!("route (a) discards architectures before ever measuring them; the loss column is the paper's thesis.");
    Ok(())
}

fn fig4(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("Figure 4: per-benchmark IPT on the best available core [{label}]\n");
    let single = best_combination(&m, 1, Merit::Average).cores;
    let avg2 = best_combination(&m, 2, Merit::Average).cores;
    let har2 = best_combination(&m, 2, Merit::HarmonicMean).cores;
    let cw2 = best_combination(&m, 2, Merit::ContentionWeightedHarmonicMean).cores;
    let own: Vec<usize> = (0..m.len()).collect();
    let sets: Vec<(&str, &[usize])> = vec![
        ("best single", &single),
        ("best 2 (avg)", &avg2),
        ("best 2 (har)", &har2),
        ("best 2 (cw-har)", &cw2),
        ("own core", &own),
    ];
    let header: Vec<String> = std::iter::once("benchmark".to_string())
        .chain(sets.iter().map(|(n, _)| n.to_string()))
        .collect();
    let rows: Vec<Vec<String>> = (0..m.len())
        .map(|w| {
            std::iter::once(m.names()[w].clone())
                .chain(
                    sets.iter()
                        .map(|(_, s)| format!("{:.2}", m.ipt(w, m.best_config_for(w, s)))),
                )
                .collect()
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    Ok(())
}

fn fig5() {
    println!("Figure 5: propagation of surrogates (illustration)\n");
    println!(
        "  forward propagation:  A hosts B, then C hosts A  =>  B effectively runs on C's arch"
    );
    println!(
        "  backward propagation: B hosts A, then A hosts C  =>  C effectively runs on B's arch"
    );
    println!("\nSee fig6/fig7/fig8 for the policies applied to the matrix.");
}

fn print_surrogating(m: &CrossPerfMatrix, s: &Surrogating) {
    for e in &s.edges {
        println!(
            "  {:2}. {} <- {}  ({:.1}% slowdown)",
            e.order,
            m.names()[e.dependent],
            m.names()[e.host],
            e.slowdown * 100.0
        );
    }
    println!();
    for (root, members) in s.groups() {
        let names: Vec<&str> = members.iter().map(|&w| m.names()[w].as_str()).collect();
        println!("  group [{}]: {}", m.names()[root], names.join(", "));
    }
    if !s.feedback_pairs.is_empty() {
        let pairs: Vec<String> = s
            .feedback_pairs
            .iter()
            .map(|&(a, b)| format!("{}<->{}", m.names()[a], m.names()[b]))
            .collect();
        println!("  feedback surrogating: {}", pairs.join(", "));
    }
    println!(
        "\n  harmonic-mean IPT {:.2}   average slowdown vs ideal {:.1}%",
        s.harmonic_ipt(m),
        s.average_slowdown(m) * 100.0
    );
}

fn figs678(source: Source, quick: bool, mode: Propagation) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    let (figure, target) = match mode {
        Propagation::None => ("Figure 6 (no propagation)", 1),
        Propagation::ForwardBackward => ("Figure 7 (full propagation)", 1),
        Propagation::Forward => ("Figure 8 (forward propagation, driven to 2 cores)", 2),
    };
    println!("{figure}: greedy surrogate assignment [{label}]\n");
    let s = assign_surrogates(&m, mode, target);
    print_surrogating(&m, &s);
    if mode == Propagation::None {
        // The paper's follow-up: grant mcf its own core.
        if let Some(mcf) = m.index_of("mcf") {
            let mut assignment = s.assignment.clone();
            assignment[mcf] = mcf;
            let har = m.len() as f64
                / assignment
                    .iter()
                    .enumerate()
                    .map(|(w, &c)| 1.0 / m.ipt(w, c))
                    .sum::<f64>();
            println!("  with mcf's own architecture added: harmonic-mean IPT {har:.2}");
        }
    }
    Ok(())
}

fn pitfall(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("§5.3 subsetting pitfall [{label}]\n");
    if let (Some(b), Some(g)) = (m.index_of("bzip"), m.index_of("gzip")) {
        println!(
            "  bzip on gzip's architecture: {:.0}% slowdown; gzip on bzip's: {:.0}%\n",
            m.slowdown(b, g) * 100.0,
            m.slowdown(g, b) * 100.0
        );
    }
    for dropped in ["gzip", "bzip"] {
        if m.index_of(dropped).is_none() {
            continue;
        }
        let r = pitfall_experiment(&m, dropped, 2, Merit::HarmonicMean);
        println!(
            "  drop {dropped}: full-set choice {:?} (har {:.3}); reduced choice {:?} delivers {:.3} on the full set ({:.1}% loss)",
            r.full_choice, r.full_value, r.reduced_choice, r.reduced_value_on_full,
            r.loss * 100.0
        );
    }
    Ok(())
}

fn schedule(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("§5.5 multithreaded job submission [{label}]\n");
    let pair = best_combination(&m, 2, Merit::HarmonicMean).cores;
    println!(
        "  cores: {:?}\n",
        pair.iter()
            .map(|&c| m.names()[c].clone())
            .collect::<Vec<_>>()
    );
    let mut rows = Vec::new();
    for burst in [0.0, 0.4, 0.8] {
        for policy in [JobPolicy::StallForAssigned, JobPolicy::BestAvailable] {
            let mut o = ScheduleOptions::new(pair.clone(), policy);
            o.burstiness = burst;
            o.arrival_rate = 2.0;
            if quick {
                o.jobs = 2000;
            }
            let s = simulate_jobs(&m, &o);
            rows.push(vec![
                format!("{burst:.1}"),
                format!("{policy:?}"),
                format!("{:.3}", s.avg_turnaround),
                format!("{:.3}", s.avg_execution),
                format!("{:.3}", s.avg_wait),
                format!("{:.1}%", s.redirect_rate * 100.0),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "burstiness".into(),
                "policy".into(),
                "turnaround".into(),
                "exec".into(),
                "wait".into(),
                "redirects".into()
            ],
            &rows
        )
    );
    println!("  (burstiness erodes the benefit of workload-to-core matching, as §5.5 argues)");
    let bp = xps_core::communal::balanced_partition(&m, &pair, 1.5);
    println!(
        "\n  BPMST-style balanced partition over the pair: avg slowdown {:.1}%, load imbalance {:.2}",
        bp.average_slowdown * 100.0,
        bp.imbalance
    );
    Ok(())
}

/// Ablation: the paper's §1.1 argument that the physical properties of
/// the technology — not just workload characteristics — shape the
/// customized configuration. Re-customize two benchmarks under the
/// default technology and under one uniformly 1.6x slower, and show
/// the configurations move (typically toward slower clocks and
/// shallower pipes).
fn ablation_tech() -> Result<(), Box<dyn Error>> {
    use xps_core::explore::{Campaign, ExploreOptions};
    println!("Technology ablation: same workloads, different physics\n");
    let profiles: Vec<_> = ["gzip", "twolf"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    let mut rows = Vec::new();
    for (label, factor) in [("default", 1.0f64), ("1.6x slower arrays", 1.6)] {
        let tech = cacti::Technology::default().scaled(factor);
        let explorer = Campaign::try_new(ExploreOptions::quick())?.with_technology(tech);
        let ctx = RunContext::from_env()?;
        let r = explorer.explore_recoverable(&profiles, &EvalCache::new(), &ctx)?;
        for core in &r.cores {
            let c = &core.config;
            rows.push(vec![
                label.to_string(),
                c.name.clone(),
                format!("{:.2}", c.clock_ns),
                c.rob_size.to_string(),
                (c.l1.geometry.capacity_bytes() / 1024).to_string(),
                (c.l2.geometry.capacity_bytes() / 1024).to_string(),
                format!("{:.2}", core.ipt),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "technology".into(),
                "benchmark".into(),
                "clock".into(),
                "ROB".into(),
                "L1 KB".into(),
                "L2 KB".into(),
                "IPT".into()
            ],
            &rows
        )
    );
    println!("workload characteristics alone cannot predict these rows — the paper's point.");
    Ok(())
}

/// Ablation: performance-only vs energy-delay-product customization —
/// the power-aware extension the paper's §3 leaves open.
fn ablation_power() -> Result<(), Box<dyn Error>> {
    use xps_core::explore::{anneal, AnnealOptions, DesignPoint, Objective};
    use xps_core::sim::estimate_energy;
    println!("Power ablation: IPT-optimal vs EDP-optimal customized cores\n");
    let tech = cacti::Technology::default();
    let mut rows = Vec::new();
    for name in ["gzip", "twolf"] {
        let p = spec::profile(name).expect("known benchmark");
        for (label, objective) in [
            ("IPT", Objective::Ipt),
            ("1/EDP", Objective::InverseEnergyDelay),
        ] {
            let mut opts = AnnealOptions::quick();
            opts.iterations = 80;
            opts.objective = objective;
            let r = anneal(
                &p,
                &DesignPoint::initial(),
                &opts,
                &tech,
                &EvalCache::new(),
                None,
            )?;
            let stats = Simulator::new(&r.config).run(TraceGenerator::new(p.clone()), 60_000);
            let e = estimate_energy(&tech, &r.config, &stats);
            let time_ns = stats.cycles as f64 * r.config.clock_ns;
            rows.push(vec![
                name.to_string(),
                label.to_string(),
                format!("{:.2}", r.config.clock_ns),
                r.config.rob_size.to_string(),
                (r.config.l2.geometry.capacity_bytes() / 1024).to_string(),
                format!("{:.2}", stats.ipt()),
                format!("{:.2}", e.average_power_w(time_ns)),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "objective".into(),
                "clock".into(),
                "ROB".into(),
                "L2 KB".into(),
                "IPT".into(),
                "power (W)".into()
            ],
            &rows
        )
    );
    Ok(())
}

/// Ablation: sensitivity of the (held-fixed) branch predictor choice.
fn ablation_predictor() {
    use xps_core::sim::PredictorKind;
    println!("Predictor ablation: mispredict rate and IPT on the initial configuration\n");
    let cfg = CoreConfig::initial();
    let mut rows = Vec::new();
    for name in ["crafty", "gcc", "twolf", "vpr"] {
        let p = spec::profile(name).expect("known benchmark");
        let mut row = vec![name.to_string()];
        for kind in [
            PredictorKind::Bimodal,
            PredictorKind::Gshare,
            PredictorKind::TwoLevelLocal,
            PredictorKind::Tournament,
        ] {
            let s =
                Simulator::with_predictor(&cfg, kind).run(TraceGenerator::new(p.clone()), 120_000);
            row.push(format!(
                "{:.1}%/{:.2}",
                s.mispredict_rate() * 100.0,
                s.ipt()
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "bimodal".into(),
                "gshare".into(),
                "2lev-local".into(),
                "tournament".into()
            ],
            &rows
        )
    );
    println!("  (cells: mispredict rate / IPT)");
}

/// Ablation: the §2.3 search-regime contrast — a coarse exhaustive
/// lattice versus simulated annealing over the full space, at equal
/// evaluation budgets per point.
fn ablation_search() -> Result<(), Box<dyn Error>> {
    use std::time::Instant;
    use xps_core::explore::{anneal, grid_search, AnnealOptions, DesignPoint, GridSpec};
    println!("Search ablation: exhaustive coarse grid vs simulated annealing\n");
    let tech = cacti::Technology::default();
    let spec_grid = GridSpec::default();
    println!(
        "  lattice size {} points (coarse); the paper's full space is combinatorially unbounded\n",
        spec_grid.len()
    );
    let mut rows = Vec::new();
    for name in ["gzip", "mcf"] {
        let p = spec::profile(name).expect("known benchmark");
        let mut opts = AnnealOptions::quick();
        opts.iterations = 120;
        opts.eval_ops_early = 20_000;
        opts.eval_ops_late = 40_000;
        // xps-allow(determinism-provenance): ablation wall-time report on stderr; not part of measured output
        let t0 = Instant::now();
        let g = grid_search(&p, &spec_grid, &opts, &tech, 1, &EvalCache::new());
        let t_grid = t0.elapsed().as_secs_f64();
        // xps-allow(determinism-provenance): ablation wall-time report on stderr; not part of measured output
        let t0 = Instant::now();
        let a = anneal(
            &p,
            &DesignPoint::initial(),
            &opts,
            &tech,
            &EvalCache::new(),
            None,
        )?;
        let t_anneal = t0.elapsed().as_secs_f64();
        rows.push(vec![
            name.to_string(),
            format!("{:.2} ({:.1}s, {} pts)", g.score, t_grid, g.evaluated),
            format!("{:.2} ({:.1}s, {} iters)", a.ipt, t_anneal, opts.iterations),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "grid best IPT".into(),
                "anneal best IPT".into()
            ],
            &rows
        )
    );
    println!("  annealing explores the continuous space the lattice cannot afford to cover.");
    Ok(())
}

/// Ablation: the prefetcher the paper's design space holds at "none".
/// If timely prefetching recovered most of the cache-capacity
/// slowdowns, configurational clustering would matter less; this
/// prints how far it actually gets.
fn ablation_prefetch() {
    use xps_core::sim::{PredictorKind, PrefetchKind};
    println!("Prefetch ablation: IPT on the initial configuration\n");
    let cfg = CoreConfig::initial();
    let mut rows = Vec::new();
    for name in ["gzip", "bzip", "mcf", "twolf"] {
        let p = spec::profile(name).expect("known benchmark");
        let mut row = vec![name.to_string()];
        for kind in [
            PrefetchKind::None,
            PrefetchKind::NextLine,
            PrefetchKind::Stream,
        ] {
            let s = Simulator::with_options(&cfg, PredictorKind::Gshare, kind)
                .run(TraceGenerator::new(p.clone()), 150_000);
            row.push(format!(
                "{:.2} ({:.0}% L1 miss)",
                s.ipt(),
                s.l1.miss_ratio() * 100.0
            ));
        }
        rows.push(row);
    }
    println!(
        "{}",
        render_table(
            &[
                "benchmark".into(),
                "none".into(),
                "next-line".into(),
                "stream".into()
            ],
            &rows
        )
    );
    println!(
        "  streaming codes (gzip) benefit; pointer chases (mcf) do not — capacity still decides."
    );
}

/// The subsetting dendrogram over the raw characteristics of all
/// eleven workload models.
fn dendrogram_cmd(quick: bool) {
    use xps_core::communal::dendrogram;
    let ops = if quick { 40_000 } else { 120_000 };
    println!("Dendrogram of raw (Kiviat) characteristics, average linkage\n");
    let mut names = Vec::new();
    let mut points = Vec::new();
    for p in spec::all_profiles() {
        let mut c = Characterizer::new();
        for op in TraceGenerator::new(p.clone()).take(ops) {
            c.observe(&op);
        }
        names.push(p.name.clone());
        points.push(c.finish().kiviat().to_vec());
    }
    let d = dendrogram(&points);
    print!("{}", d.render(&names));
    println!("\ncompare with the surrogating graphs (fig6-fig8): the greedy can pair a benchmark\nwith a different partner at every level, which a dendrogram cannot express (§5.4).");
}

/// Heat-map view of the cross-configuration slowdown matrix — the
/// xp-scalar framework's visualization tool, in ASCII.
fn visualize(source: Source, quick: bool) -> Result<(), Box<dyn Error>> {
    let (m, label) = matrix_for(source, quick)?;
    println!("Cross-configuration slowdown heat map [{label}]\n");
    println!(
        "  rows: benchmark; columns: architecture; shade: . <5%  - <15%  + <30%  * <50%  # >=50%\n"
    );
    let shade = |s: f64| -> char {
        if s < 0.05 {
            '.'
        } else if s < 0.15 {
            '-'
        } else if s < 0.30 {
            '+'
        } else if s < 0.50 {
            '*'
        } else {
            '#'
        }
    };
    let width = m.names().iter().map(|n| n.len()).max().unwrap_or(6);
    print!("{:w$}  ", "", w = width);
    for c in m.names() {
        print!("{:>3}", &c[..c.len().min(3)]);
    }
    println!();
    for w in 0..m.len() {
        print!("{:>wd$}  ", m.names()[w], wd = width);
        for c in 0..m.len() {
            print!("  {}", shade(m.slowdown(w, c)));
        }
        println!();
    }
    Ok(())
}

/// `repro profile`: self-profile a two-benchmark exploration through
/// the trace layer — print the per-phase table (counts, simulated ops,
/// logical ticks, wall time), write the deterministic span journal to
/// `results/trace.jsonl`, and write collapsed stacks to
/// `results/trace.folded` for flamegraph tools. The journal carries
/// only logical clocks, so it is byte-identical for every `--jobs N`;
/// `--quick` shrinks the run to smoke scale (the trace structure is
/// identical, only the op counts differ).
fn profile_cmd(quick: bool) -> Result<(), Box<dyn Error>> {
    use xps_core::explore::write_atomic;
    use xps_core::trace::{with_recorder, TraceSink};
    let opts = run_opts();
    let mut pipeline = Pipeline::quick();
    if quick {
        pipeline.explore.anneal.iterations = 8;
        pipeline.explore.anneal.eval_ops_early = 3_000;
        pipeline.explore.anneal.eval_ops_late = 6_000;
        pipeline.explore.reanneal_iterations = 3;
        pipeline.matrix_ops = 8_000;
    }
    pipeline.explore.jobs = opts.jobs;
    let profiles: Vec<_> = ["gzip", "mcf"]
        .iter()
        .map(|n| spec::profile(n).expect("known benchmark"))
        .collect();
    eprintln!(
        "[profiling a {} exploration of gzip+mcf]",
        if quick { "smoke-scale" } else { "quick" }
    );
    // The CLI edge is the one place wall time may enter the trace: the
    // stamps feed only the table below, never the span journal.
    let trace = TraceSink::with_wall_clock();
    let ctx = RunContext::from_env()?.with_trace(trace.clone());
    let cache = EvalCache::new();
    let (root, outcome) = with_recorder(trace.recorder(), || pipeline.run(&profiles, &cache, &ctx));
    trace.attach("main", root);
    outcome?;
    let profile = trace.profile();
    println!("Self-profile: per-phase logical work and wall time\n");
    print!("{}", profile.render());
    std::fs::create_dir_all("results")?;
    let journal = PathBuf::from("results/trace.jsonl");
    write_atomic(&journal, &trace.to_ndjson())?;
    let folded = PathBuf::from("results/trace.folded");
    write_atomic(&folded, &profile.collapsed())?;
    println!(
        "\n[span journal {} — byte-identical for every --jobs N]",
        journal.display()
    );
    println!(
        "[collapsed stacks {} — render with any flamegraph tool]",
        folded.display()
    );
    Ok(())
}

/// Run the exploration-as-a-service daemon in the foreground until
/// SIGTERM/ctrl-c, serving explore/evaluate/combination/slowdown jobs
/// over HTTP. `--addr` sets the bind address, `--data-dir` the state
/// root, `--jobs` the worker threads per campaign.
fn serve_cmd() -> Result<(), Box<dyn Error>> {
    use xps_serve::{install_signal_handlers, Server, ServerConfig};
    let opts = run_opts();
    let mut config = ServerConfig::new(
        opts.data_dir
            .clone()
            .unwrap_or_else(|| PathBuf::from("results/serve")),
    );
    config.addr = opts
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7780".to_string());
    config.pipeline_jobs = opts.jobs;
    let server = Server::bind(&config)?;
    let addr = server.local_addr()?;
    install_signal_handlers(server.shutdown_handle());
    println!(
        "xps-serve listening on {addr} (data dir {})",
        config.data_dir.display()
    );
    server.run()?;
    println!("xps-serve drained cleanly");
    Ok(())
}

/// Submit one exploration to a running daemon (`repro serve` or the
/// `xps-serve` binary), stream a few progress events, and print the
/// customized configurations — the end-to-end smoke of the serving
/// path. `--quick` uses the seconds-scale smoke profile.
fn client_cmd(quick: bool) -> Result<(), Box<dyn Error>> {
    use xps_serve::client;
    let opts = run_opts();
    let addr = opts
        .addr
        .clone()
        .unwrap_or_else(|| "127.0.0.1:7780".to_string());
    // Probe reachability first, with bounded retries: a daemon that is
    // down yields one actionable message (address, attempts, backoff,
    // how to start one) instead of a raw I/O error from mid-protocol.
    client::request_retrying(
        &addr,
        "GET",
        "/healthz",
        None,
        &client::RetryPolicy::default(),
    )?;
    let profile = if quick { "smoke" } else { "quick" };
    let job_json =
        format!(r#"{{"kind":"explore","profile":"{profile}","workloads":["gzip","mcf"]}}"#);
    println!("submitting to {addr}: {job_json}");
    let (job, resp) = client::submit(&addr, &job_json)?;
    println!("job {job}: HTTP {} {}", resp.status, resp.body);
    if resp.status == 202 {
        let shown = client::stream_events(&addr, &job, 5, |line| println!("  event: {line}"))?;
        println!("  ({shown} progress events shown)");
    }
    let body = client::wait_for_result(&addr, &job, std::time::Duration::from_secs(1200))?;
    let doc: serde::Value =
        serde_json::from_str(&body).map_err(|e| format!("result is not JSON: {e}"))?;
    if let Ok(serde::Value::Arr(cores)) = doc.member("cores") {
        let mut rows = Vec::new();
        for core in cores {
            let name = core
                .member("profile")
                .and_then(|p| p.member("name"))
                .and_then(|v| v.as_str().map(String::from))
                .unwrap_or_else(|_| "?".to_string());
            let ipt = match core.member("ipt") {
                Ok(serde::Value::F64(x)) => format!("{x:.2}"),
                _ => "?".to_string(),
            };
            rows.push(vec![name, ipt]);
        }
        println!(
            "{}",
            render_table(&["benchmark".into(), "customized IPT".into()], &rows)
        );
    }
    Ok(())
}

/// Scatter one exploration campaign over `--workers` via the fleet
/// coordinator and gather the canonical campaign document — byte-
/// identical to a single-node run for any worker count or failure
/// schedule. With no `--workers`, every task runs coordinator-local
/// (the degenerate single-node fleet). `--net-faults` injects the
/// seeded flaky-transport schedule; `--quick` uses the seconds-scale
/// smoke profile. The document lands in `results/fleet.json`.
fn fleet_cmd(quick: bool) -> Result<(), Box<dyn Error>> {
    use xps_serve::run_campaign_with_fleet;
    let opts = run_opts();
    let fleet = fleet_dispatcher()?;
    let profile = if quick { "smoke" } else { "quick" };
    let workloads = vec!["gzip".to_string(), "mcf".to_string()];
    eprintln!(
        "[fleet: {} worker(s), profile {profile}, workloads {}]",
        opts.workers.len(),
        workloads.join("+")
    );
    let report = run_campaign_with_fleet(&workloads, profile, opts.jobs, &fleet)?;
    let stats = &report.stats;
    println!(
        "campaign {}: {} tasks remote, {} local-degraded, {} retries, {} quarantines",
        report.campaign_id, report.remote_tasks, stats.degraded, stats.retried, stats.quarantines
    );
    for w in &stats.workers {
        println!(
            "  worker {} completed {}{}",
            w.addr,
            w.completed,
            if w.quarantined { " (quarantined)" } else { "" }
        );
    }
    std::fs::create_dir_all("results")?;
    let out = PathBuf::from("results/fleet.json");
    xps_core::explore::write_atomic(&out, &report.document)?;
    println!(
        "[campaign document {} — byte-identical to a single-node run]",
        out.display()
    );
    Ok(())
}

/// `repro scale`: generate a synthetic workload population and run
/// the subsetting-at-scale study. `--families/--n/--seed` shape the
/// population; `--quick` shrinks each panel campaign to smoke scale;
/// `--workers` scatters anneals and matrix cells over fleet workers
/// through the same dispatcher seam as `repro fleet`. The canonical
/// report (gap distribution, pitfall rate) is a pure function of the
/// population spec and study options — byte-identical for any
/// `--jobs` value or worker count — and lands at `--out`
/// (default `results/scale.json`); execution statistics go to stderr.
fn scale_cmd(quick: bool) -> Result<(), Box<dyn Error>> {
    use xps_scenario::{run_study, Family, PopulationSpec, StudyOptions};
    let opts = run_opts();
    let families = match opts.families.as_deref() {
        Some(list) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Family::parse)
            .collect::<Result<Vec<_>, String>>()?,
        None => Family::ALL.to_vec(),
    };
    let spec = PopulationSpec {
        families,
        n: opts.n.unwrap_or(96),
        seed: opts.seed.unwrap_or(42),
    };
    let mut study = if quick {
        StudyOptions::smoke()
    } else {
        StudyOptions::quick()
    };
    study.pipeline.explore.jobs = opts.jobs;
    let (ctx, fleet) = run_context(None, true)?;
    eprintln!(
        "[scale study: n={} seed={} families={} budget={} worker(s)={}]",
        spec.n,
        spec.seed,
        spec.families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join("+"),
        if quick { "smoke" } else { "quick" },
        if opts.workers.is_empty() {
            "local".to_string()
        } else {
            opts.workers.join(",")
        }
    );
    // xps-allow(determinism-provenance): CLI progress timing printed to stderr; the report never sees it
    let t0 = std::time::Instant::now();
    let report = run_study(&spec, &study, &ctx)?;
    let wall = t0.elapsed().as_secs_f64();
    eprintln!("[{wall:.1}s wall]");
    if let Some(fleet) = fleet {
        let s = fleet.stats();
        eprintln!(
            "[fleet: {} task(s) remote, {} local-degraded, {} retries, {} quarantines]",
            s.dispatched, s.degraded, s.retried, s.quarantines
        );
    }
    print!("{}", report.render_human());
    let out = opts
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/scale.json"));
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    xps_core::explore::write_atomic(&out, &report.canonical())?;
    println!(
        "\n[study report {} — byte-identical for any --jobs or worker count]",
        out.display()
    );
    Ok(())
}

/// Sanity helper kept for `--quick` smoke runs: simulate one benchmark
/// on one published configuration.
#[allow(dead_code)]
fn smoke() {
    let cfg = paper::table4_config("gzip").expect("gzip in Table 4");
    let p = spec::profile("gzip").expect("gzip profile");
    let stats = Simulator::new(&cfg).run(TraceGenerator::new(p), 10_000);
    eprintln!(
        "smoke: gzip on its published config: {:.2} IPT",
        stats.ipt()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_cli(&owned)
    }

    #[test]
    fn flags_parse_in_both_spellings() {
        let c = parse(&[
            "explore",
            "--quick",
            "--jobs=3",
            "--resume",
            "--retries",
            "5",
            "--journal",
            "j.jsonl",
        ])
        .expect("valid command line");
        assert_eq!(c.cmd, "explore");
        assert!(c.quick && c.resume && !c.paper_data);
        assert_eq!(c.jobs, 3);
        assert_eq!(c.retries, Some(5));
        assert_eq!(c.journal, Some(PathBuf::from("j.jsonl")));
    }

    #[test]
    fn jobs_zero_is_rejected_with_guidance() {
        let e = parse(&["explore", "--jobs", "0"]).expect_err("--jobs 0 must be rejected");
        assert!(e.contains("--jobs"), "unhelpful message: {e}");
        assert!(e.contains("omit"), "message must say how to get auto: {e}");
    }

    #[test]
    fn unknown_flag_is_rejected_not_ignored() {
        let e = parse(&["table4", "--jbos", "4"]).expect_err("typo must be rejected");
        assert!(e.contains("unknown flag `--jbos`"), "message: {e}");
    }

    #[test]
    fn extra_positional_is_rejected() {
        let e = parse(&["table4", "table5"]).expect_err("two experiments");
        assert!(e.contains("table5"), "message: {e}");
    }

    #[test]
    fn missing_experiment_is_rejected() {
        let e = parse(&["--quick"]).expect_err("no experiment");
        assert!(e.contains("missing experiment"), "message: {e}");
    }

    #[test]
    fn malformed_faults_spec_fails_at_parse_time() {
        let e = parse(&["explore", "--faults", "rate=200"]).expect_err("bad rate");
        assert!(e.contains("100"), "message: {e}");
        parse(&[
            "explore",
            "--faults",
            "rate=20,seed=7,attempts=1,kind=panic",
        ])
        .expect("valid spec");
    }

    #[test]
    fn serving_flags_parse_and_validate() {
        let c = parse(&["serve", "--addr", "0.0.0.0:9000", "--data-dir=/tmp/d"])
            .expect("valid serve command line");
        assert_eq!(c.cmd, "serve");
        assert_eq!(c.addr.as_deref(), Some("0.0.0.0:9000"));
        assert_eq!(c.data_dir, Some(PathBuf::from("/tmp/d")));
        let e = parse(&["serve", "--addr", "no-port"]).expect_err("missing port");
        assert!(e.contains("HOST:PORT"), "message: {e}");
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let e = parse(&["table4", "--quick=yes"]).expect_err("boolean with value");
        assert!(e.contains("takes no value"), "message: {e}");
    }

    #[test]
    fn scale_flags_parse_and_validate() {
        let c = parse(&[
            "scale",
            "--families",
            "expected, adversarial",
            "--n",
            "100",
            "--seed=7",
            "--out",
            "r/scale.json",
        ])
        .expect("valid scale command line");
        assert_eq!(c.cmd, "scale");
        assert_eq!(c.families.as_deref(), Some("expected,adversarial"));
        assert_eq!(c.n, Some(100));
        assert_eq!(c.seed, Some(7));
        assert_eq!(c.out, Some(PathBuf::from("r/scale.json")));
        let e = parse(&["scale", "--families", "expectde"]).expect_err("typo family");
        assert!(e.contains("expected"), "message must list families: {e}");
        let e = parse(&["scale", "--n", "3"]).expect_err("n too small");
        assert!(e.contains(">= 4"), "message: {e}");
        let e = parse(&["scale", "--seed", "x"]).expect_err("bad seed");
        assert!(e.contains("--seed"), "message: {e}");
    }

    #[test]
    fn unknown_experiment_lists_every_subcommand() {
        let e = run_dispatch("scal", Source::Measured, true).expect_err("typo experiment");
        let msg = e.to_string();
        for c in EXPERIMENTS {
            assert!(msg.contains(c), "error must list `{c}`: {msg}");
        }
    }

    #[test]
    fn fleet_flags_parse_and_validate() {
        let c = parse(&[
            "fleet",
            "--workers",
            "127.0.0.1:7801, 127.0.0.1:7802",
            "--net-faults=drop=10,seed=3",
        ])
        .expect("valid fleet command line");
        assert_eq!(c.cmd, "fleet");
        assert_eq!(c.workers, vec!["127.0.0.1:7801", "127.0.0.1:7802"]);
        assert_eq!(c.net_faults.as_deref(), Some("drop=10,seed=3"));
        let e = parse(&["fleet", "--workers", "no-port"]).expect_err("missing port");
        assert!(e.contains("HOST:PORT"), "message: {e}");
        let e = parse(&["fleet", "--net-faults", "drop=200"]).expect_err("bad rate");
        assert!(e.contains("100"), "message: {e}");
    }

    #[test]
    fn bakeoff_flags_parse_and_validate() {
        let c = parse(&["bakeoff", "--quick", "--budget", "25", "--seed=7"])
            .expect("valid bakeoff command line");
        assert_eq!(c.cmd, "bakeoff");
        assert!(c.quick);
        assert_eq!(c.budget, Some(25));
        assert_eq!(c.seed, Some(7));
        let e = parse(&["bakeoff", "--budget", "0"]).expect_err("zero budget");
        assert!(e.contains("--budget"), "message: {e}");
        let e = parse(&["bakeoff", "--budget", "many"]).expect_err("non-numeric");
        assert!(e.contains("number"), "message: {e}");
    }

    /// A synthetic bench table: `speedups[i]` becomes one row keyed
    /// `w{i}/initial/1000`.
    fn bench_rows(speedups: &[f64]) -> Vec<BenchRow> {
        speedups
            .iter()
            .enumerate()
            .map(|(i, &s)| BenchRow {
                workload: format!("w{i}"),
                config: "initial".into(),
                ops: 1_000,
                before_ops_per_sec: 1_000.0 * s,
                after_ops_per_sec: 1_000.0,
                speedup: s,
            })
            .collect()
    }

    fn bench_baseline(speedups: &[f64]) -> BenchReport {
        BenchReport {
            issue: 10,
            note: "synthetic".into(),
            rows: bench_rows(speedups),
        }
    }

    #[test]
    fn bench_check_passes_when_rows_hold() {
        let baseline = bench_baseline(&[3.0, 3.0, 3.0]);
        let fresh = bench_rows(&[2.9, 3.1, 3.0]);
        let summary = check_bench(&fresh, &baseline).expect("within both tolerances");
        assert!(summary.contains("3 row(s)"), "summary: {summary}");
    }

    #[test]
    fn bench_check_fails_on_geomean_regression() {
        let baseline = bench_baseline(&[3.0, 3.0, 3.0]);
        let fresh = bench_rows(&[2.5, 2.5, 2.5]);
        let e = check_bench(&fresh, &baseline).expect_err("geomean down 17%");
        assert!(e.contains("geomean"), "message: {e}");
    }

    #[test]
    fn bench_check_fails_when_one_row_hides_behind_the_mean() {
        // One kernel loses 40% while the others gain enough to keep
        // the geomean flat: exactly the case the old geomean-only gate
        // waved through.
        let baseline = bench_baseline(&[3.0, 3.0, 3.0]);
        let fresh = bench_rows(&[1.8, 3.7, 3.7]);
        let geo: f64 = (1.8f64 * 3.7 * 3.7).powf(1.0 / 3.0);
        assert!(geo > 3.0 * 0.9, "fixture must keep the geomean healthy");
        let e = check_bench(&fresh, &baseline).expect_err("row w0 regressed 40%");
        assert!(e.contains("w0"), "message must name the row: {e}");
        assert!(e.contains("per-row"), "message: {e}");
    }

    #[test]
    fn bench_check_rejects_an_empty_match() {
        let baseline = bench_baseline(&[3.0]);
        let mut fresh = bench_rows(&[3.0]);
        fresh[0].ops = 999; // budget mismatch: no baseline row matches
        let e = check_bench(&fresh, &baseline).expect_err("no matched rows");
        assert!(e.contains("matched no rows"), "message: {e}");
    }
}
