//! Measurement plumbing shared by every workload: process CPU and
//! peak-RSS probes, percentiles, output digests, and the benchmark's
//! own span recorder for traced runs.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Clock ticks per second of `/proc/<pid>/stat` times (`getconf CLK_TCK`).
fn clock_ticks() -> f64 {
    static TICKS: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *TICKS.get_or_init(|| {
        std::process::Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// User+system CPU seconds a process has used so far, including its
/// exited threads.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc stat times".to_string())
    };
    Ok((tick(11)? + tick(12)?) / clock_ticks())
}

/// Peak resident set size (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// Nearest-rank percentile `q` (0..=1) of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Mean of the central 80% of `xs`: the fastest and slowest tenth are
/// dropped. A shared host can alternate between a fast and a slow
/// state every second or so, which makes a run's latencies bimodal; their median
/// jumps between the two modes with the share of time the run spent in
/// each, while this mean moves in proportion to that share and ignores
/// the preempted outliers a plain mean would take in.
pub fn central_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() / 10).min((v.len() - 1) / 2);
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of no samples");
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `n=…, p50 …, pQ …` in ms, where pQ is the highest of p90, p99 and
/// p99.9 with at least ten samples beyond it.
pub fn latency_summary(ms: &[f64]) -> String {
    let n = ms.len();
    let mut out = format!("n={n}, p50 {:.4} ms", percentile(ms, 0.5));
    if let Some((label, q)) = [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.90)]
        .into_iter()
        .find(|(_, q)| ((1.0 - q) * n as f64).round() >= 10.0)
    {
        let _ = write!(out, ", {label} {:.4} ms", percentile(ms, q));
    }
    out
}

/// Seconds per call of `f`: the median over `blocks` timed blocks of
/// `reps` calls each, so a microsecond-scale call is timed well above
/// the clock's resolution and its jitter.
pub fn per_call_seconds<T>(
    blocks: usize,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut xs = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f()?);
        }
        xs.push(secs(t) / reps as f64);
    }
    Ok(median(&xs))
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Hex FNV-1a digest of a canonical output document.
pub fn digest(doc: &str) -> String {
    format!("{:016x}", xps_core::explore::fnv64(0, doc.as_bytes()))
}

/// Collected metrics of one run, with their units.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    /// Record `name` with its unit (the last value recorded wins).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.insert(name.to_string(), (value, unit));
    }

    /// Whether `name` was recorded.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `names` only.
    pub fn to_json(&self, names: &[&str]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let (v, unit) = self
                .values
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// One span of the benchmark's own trace.
#[derive(Debug, Clone)]
struct SpanRec {
    layer: &'static str,
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The benchmark-side span recorder. Spans wrap calls into one layer's
/// public functions; they are kept in memory and written out when the
/// run ends. When off, [`Tracer::span`] only calls through.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span `name` attributed to `layer`.
    pub fn span<R>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let parent = self.stack.borrow().last().copied();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(SpanRec {
                layer,
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per layer, seconds: each span's duration minus the
    /// part its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The recorded spans as NDJSON: one object per span with its id,
    /// parent, layer, name, start and end (ns since the run began).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
