//! `rfbench`: the repository's one seeded benchmark. See README.md.
//!
//! ```text
//! rfbench --workload NAME --seed S [--seconds N] [--trace 0|1] [--quick] [--out FILE]
//! rfbench --seed S [--trace 0|1] [--quick] [--out FILE]        (every workload)
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Without it, each workload runs in its own child process (this
//! binary again, with `--workload`) so heap peaks and caches do not leak
//! between them. A wrong answer exits nonzero before any number prints.

mod inputs;
mod layers;
mod load;
mod offline;
mod serve;
mod stats;
mod trace;

use bfhrf_bench::peak_alloc::{InstallPeakAlloc, GLOBAL};
use phylo_obs::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: InstallPeakAlloc = InstallPeakAlloc;

/// Restart heap-peak tracking and return the live bytes now: the baseline
/// `peak_heap_mb` is measured above.
pub fn heap_baseline() -> usize {
    GLOBAL.reset_peak();
    GLOBAL.current_bytes()
}

/// Peak live heap above `baseline`, in MB.
pub fn peak_heap_mb(baseline: usize) -> f64 {
    GLOBAL.peak_bytes().saturating_sub(baseline) as f64 / 1e6
}

/// Measured seconds per run unless `--seconds` says otherwise; the same
/// value as `run_seconds` in BENCHMARK.json.
pub const RUN_SECONDS: f64 = 15.0;

/// Workload names, in run order. Other documents cite them; never rename.
pub const WORKLOADS: [&str; 4] = [
    "offline-avgrf",
    "serve-newick",
    "serve-bin-batch",
    "serve-mixed",
];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_heap_mb", "MB")];

/// `wall_s` is one job with each of its parts at the fastest time the run
/// saw for that part: Σ over parts of the part's minimum over the run's
/// jobs. A job's parts are, offline, the whole `avgrf` run; on
/// `serve-mixed`, the add and the remove; otherwise each request of a pass
/// over the query pool. This call lowers `floors[i]` to `job[i]`.
///
/// Why floors: on a host whose cores are shared with other tenants,
/// contention for caches and memory slows the same code by up to 2× in
/// stretches of seconds to minutes, and a job's median moves with how
/// much of the run such a stretch covered. A part's fastest time needs
/// only one uncontended moment in the run, and the shorter the part, the
/// likelier one is. Every run times the same number of jobs ([`jobs`]),
/// so the minimum is never taken over more draws on a faster build.
pub fn lower_floors(floors: &mut Vec<f64>, job: &[f64]) {
    floors.resize(job.len().max(floors.len()), f64::INFINITY);
    for (f, &t) in floors.iter_mut().zip(job) {
        *f = f.min(t);
    }
}

/// The number of timed jobs in a run of `seconds` at `per_s` jobs per
/// second (at least three): a function of the run length alone.
pub fn jobs(seconds: f64, per_s: f64) -> usize {
    ((seconds * per_s).round() as usize).max(3)
}

/// A stderr line: the fastest, the median and the highest percentile with
/// ten samples beyond it (else the slowest), with the sample count.
pub fn spread_note(what: &str, secs: &[f64]) -> String {
    let v = stats::sorted(secs.to_vec());
    let tail = match stats::tail_percentile(v.len()) {
        Some(p) if p > 50.0 => format!("p{p}={:.4} s", stats::percentile(&v, p)),
        _ => format!("max={:.4} s", v[v.len() - 1]),
    };
    format!(
        "{what}: n={} min={:.4} s p50={:.4} s {tail}",
        v.len(),
        v[0],
        stats::percentile(&v, 50.0)
    )
}

/// The per-layer metrics every traced run reports, with units.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("wall_s", "s"),
    ("lat.p50_ms.lo", "ms"),
    ("lat.p99_ms.lo", "ms"),
    ("newick.parse_us", "us"),
    ("newick.bytes_per_tree", "bytes"),
    ("wire.decode_us", "us"),
    ("wire.bytes_per_tree", "bytes"),
    ("extract.us", "us"),
    ("extract.splits", "count"),
    ("probe.ns_per_split", "ns"),
    ("probe.hit_frac", "ratio"),
    ("frozen.mb", "MB"),
    ("frozen.distinct", "count"),
    ("build.us_per_tree", "us"),
    ("freeze.ms", "ms"),
    ("bfh.clone_ms", "ms"),
    ("ingest.us_per_tree", "us"),
    ("index.open_s", "s"),
    ("index.append_ms", "ms"),
    ("proto.parse_us", "us"),
    ("proto.render_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// What one workload run produced, after its answers were checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra lines for the human report on stderr.
    pub notes: Vec<String>,
    /// The trace document of a traced run.
    pub trace: Option<Json>,
}

/// Input sizes: the benchmark proper, `--quick` (same code paths, small
/// inputs, for CI) and the unit tests' tiny runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
    Tiny,
}

pub struct Config {
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for this run's generated files; removed after.
    pub work: PathBuf,
}

/// Worker threads the offline CLI is given: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// The shard count `bfhrf` builds with on `threads()` workers.
pub fn shards() -> usize {
    threads().max(2)
}

/// Run one workload in this process.
pub fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("{}: {e}", cfg.work.display()))?;
    let out = match name {
        "offline-avgrf" => offline::run(cfg),
        "serve-newick" => serve::run(serve::Kind::Newick, cfg),
        "serve-bin-batch" => serve::run(serve::Kind::BinBatch, cfg),
        "serve-mixed" => serve::run(serve::Kind::Mixed, cfg),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {})",
            WORKLOADS.join(", ")
        )),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    let mut out = out?;
    // Exactly the listed metrics, in list order, each a finite number.
    let want: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    if out.metrics.len() != want.len() {
        return Err(format!(
            "{name} reported {} metrics, expected {}",
            out.metrics.len(),
            want.len()
        ));
    }
    out.metrics = want
        .iter()
        .map(
            |&(n, unit)| match out.metrics.iter().find(|m| m.name == n && m.unit == unit) {
                Some(m) if m.value.is_finite() => Ok(m.clone()),
                Some(m) => Err(format!("{name}: {n} is {}", m.value)),
                None => Err(format!("{name} did not report {n} ({unit})")),
            },
        )
        .collect::<Result<_, _>>()?;
    Ok(out)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(out: &Outcome) -> Json {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", true.into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("metrics", Json::obj(metrics)),
    ])
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone, or `--trace 0|1`.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

const USAGE: &str =
    "usage: rfbench [--workload NAME] --seed S [--seconds N] [--trace 0|1] [--quick] [--out FILE]";

/// Where the benchmark writes traces, results and scratch inputs.
fn out_dir() -> PathBuf {
    PathBuf::from("target").join("rfbench")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 4.0 } else { RUN_SECONDS });
    match &args.workload {
        Some(name) => single(name, &args, seconds),
        None => all(&args, seconds),
    }
}

/// A run that hangs (a daemon that never answers, say) still ends within
/// three minutes, with an error instead of a result.
const DEADLINE: std::time::Duration = std::time::Duration::from_secs(170);

fn single(name: &str, args: &Args, seconds: f64) -> ExitCode {
    // Detached on purpose: it only ever acts by ending the process.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("rfbench: no result after {DEADLINE:?}; giving up");
        std::process::exit(3);
    });
    let cfg = Config {
        seed: args.seed,
        seconds,
        trace: args.trace,
        scale: if args.quick {
            Scale::Quick
        } else {
            Scale::Full
        },
        work: out_dir().join(format!("work-{name}-{}", std::process::id())),
    };
    let started = std::time::Instant::now();
    let out = match run_workload(name, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("rfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(doc) = &out.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
            eprintln!("rfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("rfbench: {name}: trace written to {}", path.display());
    }
    eprintln!(
        "rfbench: {name} seed={} seconds={seconds} trace={} nproc={} ({:.1} s)",
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        started.elapsed().as_secs_f64()
    );
    for m in &out.metrics {
        eprintln!(
            "  {:<24} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        eprintln!("  {note}");
    }
    eprintln!(
        "  attempted={} failed={} fail_frac={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let line = result_json(&out).to_string();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("rfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Every workload, each in its own child process, one after another.
fn all(args: &Args, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("rfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut results = Vec::new();
    for name in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        let out = match cmd.stderr(std::process::Stdio::inherit()).output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("rfbench: cannot run {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        match (out.status.success(), phylo_obs::json::parse(last)) {
            (true, Ok(doc)) => results.push((name, doc)),
            _ => {
                eprintln!("rfbench: {name} failed ({})", out.status);
                return ExitCode::FAILURE;
            }
        }
    }
    let doc = Json::obj(results);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join(format!("{}.json", args.seed)));
    if let Err(e) = std::fs::write(&path, format!("{doc}\n")) {
        eprintln!("rfbench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    eprintln!("rfbench: all workloads written to {}", path.display());
    println!("{doc}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve-newick --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-newick"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        let a = args("--seed 3 --trace 1 --quick").unwrap();
        assert!(a.trace && a.quick && a.workload.is_none());
        let a = args("--trace --seed 3").unwrap();
        assert!(a.trace);
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--bogus").is_err());
    }

    #[test]
    fn wall_sums_part_floors_over_a_fixed_job_count() {
        let mut floors = Vec::new();
        for job in [[3.0, 5.0], [4.0, 1.0], [2.0, 6.0]] {
            lower_floors(&mut floors, &job);
        }
        assert_eq!(floors, vec![2.0, 1.0]);
        // The job count follows the run length, whatever the speed.
        assert_eq!(jobs(15.0, 3.0), 45);
        assert_eq!(jobs(15.0, 1.0), 15);
        assert_eq!(jobs(0.6, 1.0), 3, "at least three jobs");
    }

    /// Each workload at tiny size: every metric it must report is there,
    /// with its unit, and the answers were checked on the way.
    fn tiny(name: &str, trace: bool) {
        let cfg = Config {
            seed: 11,
            seconds: 0.6,
            trace,
            scale: Scale::Tiny,
            work: std::env::temp_dir().join(format!(
                "rfbench-test-{name}-{}-{}",
                u8::from(trace),
                std::process::id()
            )),
        };
        let out = run_workload(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(got, want, "{name}");
        assert!(out.attempted >= 1, "{name}");
        assert_eq!(out.failed, 0, "{name}");
        assert_eq!(out.trace.is_some(), trace, "{name}");
        let line = result_json(&out).to_string();
        let doc = phylo_obs::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert!(!cfg.work.exists(), "scratch inputs are removed");
    }

    #[test]
    fn tiny_offline_avgrf() {
        tiny("offline-avgrf", false);
        tiny("offline-avgrf", true);
    }

    #[test]
    fn tiny_serve_newick() {
        tiny("serve-newick", false);
        tiny("serve-newick", true);
    }

    #[test]
    fn tiny_serve_bin_batch() {
        tiny("serve-bin-batch", false);
        tiny("serve-bin-batch", true);
    }

    #[test]
    fn tiny_serve_mixed() {
        tiny("serve-mixed", false);
        tiny("serve-mixed", true);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let cfg = Config {
            seed: 1,
            seconds: 1.0,
            trace: false,
            scale: Scale::Tiny,
            work: std::env::temp_dir().join(format!("rfbench-test-none-{}", std::process::id())),
        };
        assert!(run_workload("nope", &cfg).is_err());
    }
}
