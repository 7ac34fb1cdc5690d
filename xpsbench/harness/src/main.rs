//! The xp-scalar benchmark harness.
//!
//! ```text
//! xpsbench run <campaign|serve> --seed N --seconds S --trace 0|1 --work DIR --digests FILE
//! xpsbench daemon --data-dir DIR
//! ```
//!
//! `run` measures one workload in this process (for `serve`, the
//! daemon is a child process) and prints, as its last stdout line, the
//! result object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `daemon` is the `xps-serve` daemon on an ephemeral
//! loopback port; it prints `port <N>` once bound.

mod campaign;
mod layers;
mod measure;
mod queries;
mod serve;

use measure::{Metrics, Tracer};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The seed whose outputs are pinned in `digests.json`.
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics, printed with `--trace 0` for every workload.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "wall_s",
    "cpu_s",
    "peak_rss_mb",
    "success_frac",
    "req_per_s",
    "read_ms",
    "write_ms",
    "job_ms",
];

/// One run's arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input seed.
    pub seed: u64,
    /// Least time to spend measuring repeated units of work.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for journals, data dirs and the span dump.
    pub work: PathBuf,
    /// Pinned output digests (`digests.json`).
    pub digests: PathBuf,
}

impl Args {
    /// The pinned digests, for the default seed only.
    pub fn pinned(&self) -> Option<&Path> {
        (self.seed == DEFAULT_SEED).then_some(self.digests.as_path())
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (units of work, requests, output checks).
    pub attempted: u64,
    /// Operations that failed, were refused or gave wrong output.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Tally {
    /// Count one checked operation; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count a failure (the attempt is counted by the caller).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Check `digest` of `workload`'s output against the value pinned
    /// in `pinned` (when given), and against `reference` (another run
    /// of the same inputs in this process) when given.
    pub fn check_digest(
        &mut self,
        pinned: Option<&Path>,
        workload: &str,
        digest: &str,
        reference: Option<&str>,
    ) {
        if let Some(r) = reference {
            self.check(r == digest, || {
                format!("{workload}: output digest {digest} differs from this run's {r}")
            });
        }
        if let Some(path) = pinned {
            let pinned = pinned_digest(path, workload);
            self.check(pinned.as_deref() == Ok(digest), || {
                format!("{workload}: output digest {digest}, pinned {pinned:?}")
            });
        }
    }
}

fn pinned_digest(path: &Path, workload: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: serde::Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    doc.member(workload)
        .and_then(|v| v.as_str().map(String::from))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The measured metrics.
    pub metrics: Metrics,
    /// Attempts and failures.
    pub tally: Tally,
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or_else(|| format!("missing {name}"))?;
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name} expects a value"))
}

/// Host facts every result is stamped with.
fn stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::env::var("XPSBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" commit={commit}")
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let workload = argv.first().ok_or("missing workload")?.clone();
    let args = Args {
        seed: flag(argv, "--seed")?,
        seconds: flag(argv, "--seconds")?,
        trace: flag::<u8>(argv, "--trace")? == 1,
        work: flag::<String>(argv, "--work")?.into(),
        digests: flag::<String>(argv, "--digests")?.into(),
    };
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    println!(
        "# xpsbench {workload} seed={} trace={} {}",
        args.seed,
        u8::from(args.trace),
        stamp()
    );
    let tracer = Tracer::new(args.trace);
    let outcome = match (workload.as_str(), args.trace) {
        ("campaign", false) => campaign::run(&args)?,
        ("campaign", true) => campaign::run_traced(&args, &tracer)?,
        ("serve", false) => serve::run(&args)?,
        ("serve", true) => serve::run_traced(&args, &tracer)?,
        (other, _) => return Err(format!("unknown workload {other}")),
    };
    let Outcome { mut metrics, tally } = outcome;
    for p in &tally.problems {
        println!("# FAILED: {p}");
    }
    let names: Vec<&str> = if args.trace {
        for (layer, s) in tracer.self_seconds() {
            println!("# self time {layer}: {s:.4} s");
            metrics.set(&format!("{layer}.self_s"), s, "s");
        }
        let spans = args
            .work
            .join(format!("spans-{workload}-{}.ndjson", args.seed));
        std::fs::write(&spans, tracer.to_ndjson())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("# spans written to {}", spans.display());
        layers::PER_LAYER.to_vec()
    } else {
        let attempted = tally.attempted.max(1) as f64;
        metrics.set(
            "success_frac",
            1.0 - tally.failed as f64 / attempted,
            "ratio",
        );
        END_TO_END.to_vec()
    };
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.to_json(&names)?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("daemon") => flag::<String>(&argv, "--data-dir")
            .and_then(|d| serve::daemon(Path::new(&d)))
            .map(|()| ExitCode::SUCCESS),
        _ => Err("usage: xpsbench run <workload> --seed N --seconds S --trace 0|1 --work DIR --digests FILE | xpsbench daemon --data-dir DIR".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("xpsbench: {e}");
        ExitCode::FAILURE
    })
}
